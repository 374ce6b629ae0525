import numpy as np
import pytest

from netwake.cascade import CascadeParams, SeedSpec, run_cascade
from netwake.geometry import BoundaryMode, sample_points
from netwake.montecarlo import ReplicateStats, SweepRow
from netwake.network import build_rgg
from netwake.output import (
    RunManifest,
    emit_sweep_csv,
    emit_transition_csv,
    export_snapshot,
    snapshot_path,
)
from netwake.smallworld import LinkScheme, add_long_range_links

from conftest import edge_set, read_snapshot


def manifest(rows: int, duration: float = 1.5) -> RunManifest:
    return RunManifest(config_echo="phi=0.1 R=16.0", master_seed=7,
                       duration_s=duration, row_count=rows)


def stats_row(p: float = 0.5) -> ReplicateStats:
    return ReplicateStats(
        p_global=p, p_global_se=0.05, mean_time=42.0, mean_time_se=1.0,
        mean_energy=2.5e6, mean_energy_se=1e4, mean_final_fraction=0.9,
        mean_link_length=None, n_success=10, n_runs=20, n_infeasible=0,
    )


class TestSweepCsv:
    def test_single_cell_layout(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_sweep_csv([SweepRow(16.0, None, stats_row())], manifest(1), str(path))
        lines = path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert len(comments) == 5
        assert data[0] == ("axis1,axis2,p_global,p_global_se,mean_time,mean_time_se,"
                           "mean_energy,mean_energy_se,n_success,n_runs")
        assert data[1].startswith("16.0,,0.5,")
        assert len(data) == 2

    def test_manifest_fields_present(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_sweep_csv([SweepRow(16.0, None, stats_row())], manifest(1), str(path))
        text = path.read_text()
        for key in ("netwake-version", "config:", "master-seed: 7", "duration-s:", "rows: 1"):
            assert key in text

    def test_grid_cardinality(self, tmp_path):
        rows = [SweepRow(float(i), float(j), stats_row()) for i in range(20) for j in range(30)]
        path = tmp_path / "grid.csv"
        emit_sweep_csv(rows, manifest(len(rows)), str(path))
        data = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 600

    def test_byte_identical_modulo_duration(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [SweepRow(16.0, 0.1, stats_row())]
        emit_sweep_csv(rows, manifest(1, duration=1.0), str(a))
        emit_sweep_csv(rows, manifest(1, duration=9.9), str(b))
        keep = lambda text: [l for l in text.splitlines() if "duration-s" not in l]
        assert keep(a.read_text()) == keep(b.read_text())
        assert a.read_text() != b.read_text()

    def test_flagged_row_keeps_schema_with_empty_fields(self, tmp_path):
        path = tmp_path / "f.csv"
        emit_sweep_csv(
            [SweepRow(16.0, None, stats_row()), SweepRow(18.0, None, None, error="boom")],
            manifest(2), str(path),
        )
        data = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert data[2] == "18.0,,,,,,,,,"

    def test_absent_means_are_empty(self, tmp_path):
        s = stats_row()
        s.mean_time = s.mean_time_se = s.mean_energy = s.mean_energy_se = None
        s.n_success = 0
        path = tmp_path / "e.csv"
        emit_sweep_csv([SweepRow(16.0, None, s)], manifest(1), str(path))
        data = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert data[1] == "16.0,,0.5,0.05,,,,,0,20"

    def test_full_precision_round_trip(self, tmp_path):
        s = stats_row(p=1 / 3)
        path = tmp_path / "p.csv"
        emit_sweep_csv([SweepRow(1 / 7, None, s)], manifest(1), str(path))
        data = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        cells = data[1].split(",")
        assert float(cells[0]) == 1 / 7
        assert float(cells[2]) == 1 / 3

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_sweep_csv([], manifest(0), str(tmp_path / "x.csv"))

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(OSError):
            emit_sweep_csv([SweepRow(1.0, None, stats_row())], manifest(1),
                           str(tmp_path / "no" / "dir" / "x.csv"))


class TestTransitionCsv:
    def test_rows_and_extra_manifest(self, tmp_path):
        m = manifest(2)
        m.extra = {"boundary-exponent": "-0.51"}
        path = tmp_path / "t.csv"
        emit_transition_csv([(0.05, 12.4, 28.9), (0.1, None, 20.7)], m, str(path))
        lines = path.read_text().splitlines()
        assert "# boundary-exponent: -0.51" in lines
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "phi,r_onset,r_upper"
        assert data[1] == "0.05,12.4,28.9"
        assert data[2] == "0.1,,20.7"


@pytest.fixture(scope="module")
def snapshot_net():
    pts = sample_points(150, 100.0, np.random.default_rng(17))
    net = build_rgg(pts, 12.0, 100.0, BoundaryMode.TORUS)
    return add_long_range_links(net, LinkScheme.uniform(0.04), np.random.default_rng(18))


class TestSnapshot:
    def test_seed_only_at_step_zero(self, snapshot_net, tmp_path):
        out = run_cascade(
            snapshot_net, CascadeParams(phi=0.2, seed_spec=SeedSpec.explicit([3])),
            np.random.default_rng(1),
        )
        path = tmp_path / "snap.csv"
        export_snapshot(snapshot_net, out.active_at(0), 0, str(path), manifest(150))
        snap = read_snapshot(str(path))
        assert snap.step == 0
        assert snap.active.sum() == 1 and snap.active[3]

    def test_edge_count_conserved(self, snapshot_net, tmp_path):
        path = tmp_path / "snap.csv"
        export_snapshot(snapshot_net, np.zeros(150, dtype=bool), 0, str(path), manifest(150))
        snap = read_snapshot(str(path))
        assert len(snap.edges) == snapshot_net.n_local_edges + snapshot_net.n_long_edges
        assert sum(1 for e in snap.edges if e[2] == "long") == snapshot_net.n_long_edges == 6

    def test_round_trip_reconstructs_everything(self, snapshot_net, tmp_path):
        out = run_cascade(snapshot_net, CascadeParams(phi=0.15), np.random.default_rng(2))
        active = out.active_at(out.time)
        path = tmp_path / "snap.csv"
        export_snapshot(snapshot_net, active, out.time, str(path), manifest(150))
        snap = read_snapshot(str(path))
        np.testing.assert_array_equal(snap.active, active)
        np.testing.assert_allclose(snap.positions, snapshot_net.positions)
        got_local = {(min(u, v), max(u, v)) for u, v, kind, _ in snap.edges if kind == "local"}
        assert got_local == edge_set(snapshot_net)
        got_long = {(min(u, v), max(u, v)) for u, v, kind, _ in snap.edges if kind == "long"}
        want_long = {(min(u, v), max(u, v)) for u, v in zip(snapshot_net.long_u, snapshot_net.long_v)}
        assert got_long == want_long

    def test_completed_global_cascade_snapshot(self, snapshot_net, tmp_path):
        # Flooding wakes the whole giant component; the final snapshot must
        # hold at least the global-cutoff share of active rows.
        out = run_cascade(
            snapshot_net, CascadeParams(phi=0.0), np.random.default_rng(3)
        )
        assert out.is_global
        path = tmp_path / "final.csv"
        export_snapshot(snapshot_net, out.active_at(out.time), out.time, str(path), manifest(150))
        snap = read_snapshot(str(path))
        assert snap.active.sum() >= 0.85 * snapshot_net.n_nodes

    def test_state_size_validated(self, snapshot_net, tmp_path):
        with pytest.raises(ValueError):
            export_snapshot(snapshot_net, np.zeros(3, dtype=bool), 0,
                            str(tmp_path / "bad.csv"), manifest(3))


def test_snapshot_path_naming():
    assert snapshot_path("snap.csv", 80) == "snap_t80.csv"
    assert snapshot_path("out/run.csv", 0) == "out/run_t0.csv"
    assert snapshot_path("plain", 5) == "plain_t5"
