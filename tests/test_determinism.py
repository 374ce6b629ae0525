"""Pinned CLI outputs: a change that alters a random stream or a result fails here.

A config and master seed pin every output byte except the duration
line. The sweep digests were computed at commit 22c3099, before the
cell-slot pair enumeration, the distance screen and the long-link merge
changed how networks are built; the transition digest at commit 1d78b53,
before the onset and upper-boundary estimators were folded into one
crossing routine; the ``run`` digests (summary, long-link lengths,
``stalled`` and snapshots) at commit de6b5f4, before long-link lengths
were measured only for the placed links. The ``stalled`` digest, the
only asynchronous output, was pinned again when a sweep's visit order
changed from ``rng.permutation(n)`` to one ``rng.random(n)`` key per node;
that run still prints ``stalled: true``. The ``idle`` digest, an
asynchronous planar sweep whose above-window cells hold single seeds
that wake nobody, was computed at commit 4f3a65e, before such replicates
skipped their network build. None may move unless a change is meant to
alter outputs (say so in CHANGES.md when it is).
"""

import hashlib

import pytest

from netwake.cli import EXIT_OK, main

PLAIN = """
phi = 0.1
R = 12
n_nodes = 400
L = 200
n_runs = 6
master_seed = 17

sweep {
    axis1 = phi
    values1 = 0.05, 0.2
    axis2 = R
    values2 = 9, 14, 20
}
"""

POWERLAW = """
phi = 0.12
R = 14
n_nodes = 400
L = 200
boundary = planar
n_runs = 6
master_seed = 23

scheme {
    kind = powerlaw
    p_r = 0.02
    delta = 2
}

sweep {
    axis1 = delta
    values1 = 0, 2, 4
}
"""

# Onset and upper boundary for every phi, plus the boundary-exponent line.
TRANSITION = """
phi = 0.1
R = 10
n_nodes = 400
L = 200
n_runs = 12
master_seed = 11

sweep {
    axis1 = R
    values1 = 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24, 28, 32, 36
    axis2 = phi
    values2 = 0.05, 0.1, 0.15, 0.2
}
"""

# Asynchronous, on the plane, no long links: at phi = 0.3 and R = 14 or 24
# most single seeds wake nobody, while the other cells cascade or die out
# later.
IDLE = """
phi = 0.1
R = 12
n_nodes = 400
L = 200
boundary = planar
schedule = asynchronous
n_runs = 8
master_seed = 31

sweep {
    axis1 = phi
    values1 = 0.05, 0.3
    axis2 = R
    values2 = 8, 14, 24
}
"""

DIGESTS = {
    "idle": ("sweep", IDLE, "872792a52004f9e7513d6986d6dbfe389ceff70358c289847ef1f7862c0afac1"),
    "plain": ("sweep", PLAIN, "7c213b8757a5ab908f79fb064e624b050f5112459d702389779884f668ce3d6c"),
    "powerlaw": ("sweep", POWERLAW,
                 "171cc16e2bea513c17ba133d472dae50b0fcc70b9483e3696096cf07cb078521"),
    "transition": ("transition", TRANSITION,
                   "aadb407177f44cf2738949f8079cfff5b6be803f3dca14da0fb82d29e47641a9"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_csv_digest_is_pinned(tmp_path, name, threads):
    command, text, digest = DIGESTS[name]
    cfg, out = tmp_path / f"{name}.conf", tmp_path / f"{name}.csv"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(out), "--threads", threads]) == EXIT_OK
    data = b"".join(line for line in out.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"# duration-s:"))
    assert hashlib.sha256(data).hexdigest() == digest


# Uniform links on the plane; the cascade reaches a fixed point.
RUN_UNIFORM = """
phi = 0.12
R = 16
n_nodes = 400
L = 200
boundary = planar
master_seed = 23

scheme {
    kind = uniform
    p_r = 0.05
}
"""

# Power-law links, asynchronous schedule; the step budget runs out while
# the cascade still grows, so the run is flagged stalled.
RUN_STALLED = """
phi = 0.12
R = 16
n_nodes = 400
L = 200
schedule = asynchronous
max_steps = 4
master_seed = 29

scheme {
    kind = powerlaw
    p_r = 0.05
    delta = 2
}
"""

RUN_DIGESTS = {
    "uniform": (RUN_UNIFORM, "3fd3cd9af73f0e557575a61e17e83439349af900e670340235f9c3bae2dcd5c9"),
    "stalled": (RUN_STALLED, "632304953e7bd3f672afd92448737b08d5d3867395f3bf388aca74c72dc89289"),
}


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_output_digest_is_pinned(tmp_path, capsys, name):
    """Digest of the run summary (without the ``wrote`` lines) followed by
    the snapshots at steps 0, 3 and 40 (without their duration lines)."""
    text, digest = RUN_DIGESTS[name]
    cfg = tmp_path / f"{name}.conf"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "snap.csv"),
                 "--snapshots", "0,3,40"]) == EXIT_OK
    out = capsys.readouterr().out
    data = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("wrote ")).encode()
    for step in (0, 3, 40):
        data += b"".join(line for line in (tmp_path / f"snap_t{step}.csv").read_bytes().splitlines(keepends=True)
                         if not line.startswith(b"# duration-s:"))
    assert hashlib.sha256(data).hexdigest() == digest
