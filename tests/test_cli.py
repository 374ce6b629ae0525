import subprocess
import sys

import pytest

from netwake import cli
from netwake.cli import EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, EXIT_PARSE, main

from conftest import read_snapshot

FAST_BASE = """
phi = 0.1
R = 16
n_nodes = 400
L = 200
n_runs = 8
master_seed = 11
"""

SWEEP_DOC = FAST_BASE + """
sweep {
    axis1 = R
    values1 = 10, 16
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strip_duration(path):
    with open(path) as fh:
        return [l.rstrip("\n") for l in fh if "duration-s" not in l]


class TestSweepCommand:
    def test_writes_table(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.conf", SWEEP_DOC)
        out = str(tmp_path / "table.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
        data = [l for l in strip_duration(out) if not l.startswith("#")]
        assert len(data) == 3  # header + 2 cells

    def test_deterministic_across_thread_counts(self, tmp_path):
        cfg = write(tmp_path, "s.conf", SWEEP_DOC)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg, "--out", a, "--threads", "1"]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", b, "--threads", "2"]) == EXIT_OK
        assert strip_duration(a) == strip_duration(b)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write(tmp_path, "s.conf", SWEEP_DOC)
        a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
        main(["sweep", "--config", cfg, "--out", a])
        main(["sweep", "--config", cfg, "--out", b, "--seed", "99"])
        main(["sweep", "--config", cfg, "--out", c, "--seed", "99"])
        assert strip_duration(b) == strip_duration(c)
        data = lambda p: [l for l in strip_duration(p) if not l.startswith("#")]
        assert data(a) != data(b)

    def test_partly_infeasible_cells_reported_on_stderr(self, tmp_path, capsys):
        # Triple seeds need a node of degree >= 2: at R=1 no replicate
        # finds one (a flagged cell), at R=10 only some do, at R=40 all do.
        doc = """
        phi = 0.1
        R = 10
        n_nodes = 12
        L = 100
        n_runs = 10
        seed_rule = triple
        master_seed = 5
        sweep {
            axis1 = R
            values1 = 1, 10, 40
        }
        """
        cfg = write(tmp_path, "p.conf", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("netwake: cell R=1.0 flagged:")
        assert err[1] == "netwake: cell R=10.0: 9 of 10 replicates infeasible (seeding 9)"

    def test_stalled_cascades_reported_on_stderr(self, tmp_path, capsys):
        # One step cannot finish a cascade that is still growing; one R=10
        # seed has no neighbour, so its cascade stops at once.
        cfg = write(tmp_path, "m.conf", SWEEP_DOC + "max_steps = 1\n")
        out = tmp_path / "m.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "netwake: cell R=10.0: 7 of 8 replicates stalled",
            "netwake: cell R=16.0: 8 of 8 replicates stalled",
        ]
        assert all(l.split(",")[8] == "0" for l in strip_duration(out)[-2:])

    def test_underflowing_powerlaw_cell_is_flagged(self, tmp_path, capsys):
        # 16**-400 underflows to 0, so no long link fits at delta = 400.
        doc = FAST_BASE + "scheme = powerlaw\np_r = 0.01\ndelta = 2\nsweep {\n axis1 = delta\n values1 = 2, 400\n}\n"
        cfg = write(tmp_path, "d.conf", doc)
        out = tmp_path / "d.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.startswith("netwake: cell delta=400.0 flagged:")
        rows = [l for l in strip_duration(out) if not l.startswith("#")][1:]
        assert rows[0].split(",")[-1] == "8" and rows[1] == "400.0,,,,,,,,,"

    def test_requires_sweep_block(self, tmp_path):
        cfg = write(tmp_path, "plain.conf", FAST_BASE)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["sweep", "transition"])
    def test_negative_threads_flag_is_a_parse_error(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "s.conf", SWEEP_DOC)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv"), "--threads=-1"]) == EXIT_PARSE
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestThreads:
    def test_zero_means_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli._n_jobs(0) == 1

    def test_zero_without_affinity_means_every_core(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._n_jobs(0) == 3
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._n_jobs(0) == 1


class TestRunCommand:
    def test_prints_summary(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.conf", FAST_BASE)
        assert main(["run", "--config", cfg]) == EXIT_OK
        text = capsys.readouterr().out
        for key in ("final_fraction:", "time:", "is_global:", "energy_total:"):
            assert key in text

    def test_snapshots_exported(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.conf", FAST_BASE + "seed_rule = explicit\nseed_nodes = 5\n")
        base = str(tmp_path / "snap.csv")
        assert main(["run", "--config", cfg, "--out", base, "--snapshots", "0,2"]) == EXIT_OK
        t0 = read_snapshot(str(tmp_path / "snap_t0.csv"))
        assert t0.active.sum() == 1 and t0.active[5]
        t2 = read_snapshot(str(tmp_path / "snap_t2.csv"))
        assert t2.active.sum() >= t0.active.sum()

    def test_rejects_sweep_config(self, tmp_path):
        cfg = write(tmp_path, "s.conf", SWEEP_DOC)
        assert main(["run", "--config", cfg]) == EXIT_PARSE

    def test_seed_flag_overrides_the_config(self, tmp_path, capsys):
        # --seed 99 on a run config prints what master_seed = 99 prints.
        flagged = write(tmp_path, "r.conf", FAST_BASE)
        pinned = write(tmp_path, "p.conf", FAST_BASE.replace("master_seed = 11", "master_seed = 99"))
        assert main(["run", "--config", flagged, "--seed", "99"]) == EXIT_OK
        via_flag = capsys.readouterr().out
        assert main(["run", "--config", pinned]) == EXIT_OK
        assert capsys.readouterr().out == via_flag
        assert main(["run", "--config", flagged]) == EXIT_OK
        assert capsys.readouterr().out != via_flag

    @pytest.mark.parametrize("command,doc", [("run", FAST_BASE), ("sweep", SWEEP_DOC)])
    def test_negative_seed_flag_is_a_parse_error(self, tmp_path, capsys, command, doc):
        cfg = write(tmp_path, "c.conf", doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv"), "--seed=-1"]) == EXIT_PARSE
        assert "--seed: master seed must be nonnegative" in capsys.readouterr().err

    def test_bad_snapshot_list(self, tmp_path):
        cfg = write(tmp_path, "r.conf", FAST_BASE)
        assert main(["run", "--config", cfg, "--snapshots", "a,b"]) == EXIT_PARSE

    def test_negative_snapshot_step_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "r.conf", FAST_BASE)
        base = str(tmp_path / "snap.csv")
        assert main(["run", "--config", cfg, "--out", base, "--snapshots=-3,0"]) == EXIT_PARSE
        assert "-3" in capsys.readouterr().err
        assert not list(tmp_path.glob("snap_t*.csv"))


class TestTransitionCommand:
    def test_estimates_onset(self, tmp_path):
        doc = """
        phi = 0.05
        R = 12
        n_nodes = 2500
        L = 500
        n_runs = 30
        master_seed = 3
        sweep {
            axis1 = R
            values1 = 10, 11, 12, 13, 14, 15
        }
        """
        cfg = write(tmp_path, "t.conf", doc)
        out = str(tmp_path / "trans.csv")
        assert main(["transition", "--config", cfg, "--out", out, "--threads", "2"]) == EXIT_OK
        data = [l for l in strip_duration(out) if not l.startswith("#")]
        assert data[0] == "phi,r_onset,r_upper"
        phi, onset, upper = data[1].split(",")
        assert float(phi) == 0.05
        assert 11.0 <= float(onset) <= 14.0
        assert upper == ""  # no descending crossing on this grid

    @pytest.mark.parametrize("phis, fitted", [("0, 0.1, 0.15", False), ("0.1, 0.15, 0.2", True)])
    def test_zero_threshold_skips_exponent_fit(self, tmp_path, capsys, phis, fitted):
        # Every threshold here has an upper boundary, phi = 0 included (a
        # noisy fall at 3 runs a cell); log(0) leaves no slope to fit.
        doc = f"""
        phi = 0.1
        R = 10
        n_nodes = 100
        L = 100
        n_runs = 3
        master_seed = 2
        sweep {{
            axis1 = R
            values1 = 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24, 28
            axis2 = phi
            values2 = {phis}
        }}
        """
        cfg = write(tmp_path, "z.conf", doc)
        out = str(tmp_path / "z.csv")
        assert main(["transition", "--config", cfg, "--out", out]) == EXIT_OK
        lines = strip_duration(out)
        rows = [l for l in lines if not l.startswith("#")]
        assert len(rows) == 4 and all(r.split(",")[2] for r in rows[1:])
        assert any(l.startswith("# boundary-exponent:") for l in lines) is fitted
        err = capsys.readouterr().err
        assert ("boundary exponent omitted" in err) is not fitted

    def test_requires_r_axis(self, tmp_path):
        doc = FAST_BASE + "sweep {\n axis1 = phi\n values1 = 0.1, 0.2\n}\n"
        cfg = write(tmp_path, "t.conf", doc)
        assert main(["transition", "--config", cfg]) == EXIT_PARSE

    def test_axis2_other_than_phi_is_a_parse_error(self, tmp_path, capsys):
        doc = FAST_BASE + "sweep {\n axis1 = R\n values1 = 10, 16\n axis2 = p_r\n values2 = 0, 0.01\n}\n"
        cfg = write(tmp_path, "t.conf", doc)
        assert main(["transition", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_PARSE
        assert "accepts only phi as axis2" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        cfg = write(tmp_path, "bad.conf", "phi = 1.5\nR = 16\n")
        assert main(["run", "--config", cfg]) == EXIT_PARSE

    def test_infeasible_experiment(self, tmp_path):
        cfg = write(tmp_path, "inf.conf",
                    "phi = 0.1\nR = 0\nn_nodes = 50\nL = 70\nn_runs = 3\nseed_rule = triple\n")
        assert main(["run", "--config", cfg]) == EXIT_INFEASIBLE

    def test_zero_range_is_infeasible_with_a_single_seed(self, tmp_path, capsys):
        cfg = write(tmp_path, "r0.conf", "phi = 0.1\nR = 0\nn_nodes = 50\nL = 70\n")
        assert main(["run", "--config", cfg]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("netwake: infeasible experiment:")

    def test_exhausted_link_budget_is_infeasible(self, tmp_path, capsys):
        cfg = write(tmp_path, "full.conf", "phi = 0.1\nR = 16\nn_nodes = 5\nL = 10\nboundary = planar\np_r = 1\n")
        assert main(["run", "--config", cfg]) == EXIT_INFEASIBLE
        assert "unused node pairs" in capsys.readouterr().err

    def test_io_error(self, tmp_path):
        cfg = write(tmp_path, "s.conf", SWEEP_DOC)
        missing = str(tmp_path / "no_such_dir" / "x.csv")
        assert main(["sweep", "--config", cfg, "--out", missing]) == EXIT_IO

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "ghost.conf")]) == EXIT_IO


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "r.conf"
    cfg.write_text(FAST_BASE)
    proc = subprocess.run(
        [sys.executable, "-m", "netwake.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "final_fraction:" in proc.stdout


def test_runtime_needs_no_scipy():
    # The package promises a numpy-only runtime: block scipy and run a replicate.
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "import netwake\n"
        "from netwake.montecarlo import ExperimentConfig, run_replicate\n"
        "from netwake.smallworld import LinkScheme\n"
        "cfg = ExperimentConfig(phi=0.1, radio_range=16.0, n_nodes=200, side=150.0,\n"
        "                       scheme=LinkScheme.power_law(0.05, 2.0), n_runs=1)\n"
        "print(run_replicate(cfg, 0).outcome.final_fraction)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < float(proc.stdout) <= 1.0
