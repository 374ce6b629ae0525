"""Deterministic file emission: sweep tables, boundary tables, snapshots.

Every file starts with ``#``-prefixed manifest lines (version, config
echo, seed, wall-clock duration, row count) so results are
self-describing. Re-running the same experiment with the same master
seed reproduces every byte except the duration line. Numbers are written
with repr (shortest round-trip form, plain decimal point), so output is
locale-independent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from . import __version__
from .cascade import CascadeOutcome
from .geometry import pair_distances
from .montecarlo import SweepRow
from .network import Network

#: The ``ReplicateStats`` fields a sweep table holds, in column order.
_STAT_COLUMNS = (
    "p_global", "p_global_se", "mean_time", "mean_time_se",
    "mean_energy", "mean_energy_se", "n_success", "n_runs",
)

SWEEP_HEADER = ["axis1", "axis2", *_STAT_COLUMNS]

TRANSITION_HEADER = ["phi", "r_onset", "r_upper"]

DURATION_KEY = "duration-s"


@dataclass
class RunManifest:
    """Header block identifying what produced a file."""

    config_echo: str
    master_seed: int
    duration_s: float
    row_count: int
    extra: dict | None = None

    def lines(self) -> list[str]:
        items = [
            ("netwake-version", __version__),
            ("config", self.config_echo),
            ("master-seed", self.master_seed),
            (DURATION_KEY, f"{self.duration_s:.3f}"),
            ("rows", self.row_count),
        ]
        if self.extra:
            items.extend(self.extra.items())
        return [f"# {key}: {value}" for key, value in items]


def _fmt(value) -> str:
    """Full-precision, locale-independent cell text; None is empty."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    return repr(float(value))


def _write_rows(fh: TextIO, manifest: RunManifest, header: list[str], rows: Iterable[list]):
    for line in manifest.lines():
        fh.write(line + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])


def emit_sweep_csv(rows: list[SweepRow], manifest: RunManifest, destination: str) -> None:
    """Write one CSV data row per sweep cell, in grid order.

    Cells that failed (row.error set) keep the schema with empty
    statistic fields.
    """
    if not rows:
        raise ValueError("refusing to emit an empty sweep table")

    cells = ([row.axis1_value, row.axis2_value,
              *(None if row.stats is None else getattr(row.stats, name) for name in _STAT_COLUMNS)]
             for row in rows)
    with open(destination, "w", newline="") as fh:
        _write_rows(fh, manifest, SWEEP_HEADER, cells)


def emit_transition_csv(rows: list[tuple], manifest: RunManifest, destination: str) -> None:
    """Write (phi, onset range, upper boundary range) rows; None fields empty."""
    with open(destination, "w", newline="") as fh:
        _write_rows(fh, manifest, TRANSITION_HEADER, [list(r) for r in rows])


def export_snapshot(
    net: Network,
    active: np.ndarray,
    step: int,
    destination: str,
    manifest: RunManifest,
) -> None:
    """Dump node states and the full edge list for external replotting.

    Two CSV sections: nodes (id,x,y,active) and edges (u,v,kind,length),
    separated by ``# section:`` marker lines. Local edge lengths are the
    metric distances; long edges carry their recorded construction length.
    """
    active = np.asarray(active, dtype=bool)
    if active.size != net.n_nodes:
        raise ValueError(f"state covers {active.size} nodes, network has {net.n_nodes}")

    lu, lv = net.local_edges()
    positions = net.positions
    local_d = pair_distances(positions.take(lu, axis=0), positions.take(lv, axis=0), net.side, net.boundary)

    with open(destination, "w", newline="") as fh:
        for line in manifest.lines():
            fh.write(line + "\n")
        fh.write(f"# step: {step}\n")
        writer = csv.writer(fh, lineterminator="\n")
        fh.write("# section: nodes\n")
        writer.writerow(["id", "x", "y", "active"])
        for i in range(net.n_nodes):
            writer.writerow([i, _fmt(net.positions[i, 0]), _fmt(net.positions[i, 1]), int(active[i])])
        fh.write("# section: edges\n")
        writer.writerow(["u", "v", "kind", "length"])
        for u, v, d in zip(lu, lv, local_d):
            writer.writerow([int(u), int(v), "local", _fmt(d)])
        for u, v, d in zip(net.long_u, net.long_v, net.long_length):
            writer.writerow([int(u), int(v), "long", _fmt(d)])


def snapshot_path(base: str, step: int) -> str:
    """snapshot.csv, 80 -> snapshot_t80.csv"""
    if "." in base.rsplit("/", 1)[-1]:
        stem, ext = base.rsplit(".", 1)
        return f"{stem}_t{step}.{ext}"
    return f"{base}_t{step}"


def summarize_run(outcome: CascadeOutcome, report) -> str:
    """Human-readable one-run summary for the CLI."""
    lines = [
        f"seed_nodes: {','.join(str(s) for s in outcome.seed)}",
        f"final_fraction: {outcome.final_fraction:.6f}",
        f"time: {outcome.time}",
        f"is_global: {str(outcome.is_global).lower()}",
        f"stalled: {str(outcome.stalled).lower()}",
        f"local_broadcasts: {report.n_local_broadcasts}",
        f"long_transmissions: {report.n_long_transmissions}",
        f"energy_total: {report.total_energy!r}",
        f"energy_predicted: {report.predicted_energy!r}",
    ]
    return "\n".join(lines)
