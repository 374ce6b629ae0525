"""Pinned sweep outputs: a change that alters a random stream or a result fails here.

A config and master seed pin every output byte except the duration
line. These digests were computed at commit 22c3099, before the cell-slot
pair enumeration, the distance screen and the long-link merge changed how
networks are built, and must not move unless a change is meant to alter
outputs (say so in CHANGES.md when it is).
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

DIGESTS = {
    "plain": (PLAIN, "7c213b8757a5ab908f79fb064e624b050f5112459d702389779884f668ce3d6c"),
    "powerlaw": (POWERLAW, "171cc16e2bea513c17ba133d472dae50b0fcc70b9483e3696096cf07cb078521"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_sweep_csv_digest_is_pinned(tmp_path, name, threads):
    text, digest = DIGESTS[name]
    cfg, out = tmp_path / f"{name}.conf", tmp_path / f"{name}.csv"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", threads]) == EXIT_OK
    data = b"".join(line for line in out.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"# duration-s:"))
    assert hashlib.sha256(data).hexdigest() == digest
