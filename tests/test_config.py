import pytest

from netwake.cascade import Schedule, SeedRule
from netwake.config import describe_config, describe_sweep, parse_config
from netwake.errors import ConfigError
from netwake.geometry import BoundaryMode
from netwake.montecarlo import ExperimentConfig, SweepSpec
from netwake.smallworld import SchemeKind


class TestDefaults:
    def test_minimal_document(self):
        cfg = parse_config("phi = 0.12\nR = 16\n")
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.phi == 0.12 and cfg.radio_range == 16.0
        assert cfg.n_nodes == 10_000
        assert cfg.side == 1000.0
        assert cfg.boundary is BoundaryMode.TORUS
        assert cfg.coefficient == 1.0
        assert cfg.cascade.cutoff_fraction == 0.85
        assert cfg.n_runs == 1000
        assert cfg.master_seed == 0
        assert cfg.cascade.schedule is Schedule.SYNCHRONOUS
        assert cfg.cascade.seed_spec.rule is SeedRule.SINGLE
        assert cfg.scheme.p_r == 0.0

    def test_colon_separator_and_comments(self):
        cfg = parse_config("# experiment\nphi: 0.2  # threshold\nR: 14\n\n")
        assert cfg.phi == 0.2 and cfg.radio_range == 14.0

    def test_overrides(self):
        text = """
        phi = 0.15
        R = 22
        n_nodes = 2500
        L = 500
        boundary = planar
        schedule = asynchronous
        seed_rule = triple
        cutoff_fraction = 0.9
        max_steps = 500
        n_runs = 200
        master_seed = 7
        c = 2.5
        """
        cfg = parse_config(text)
        assert cfg.n_nodes == 2500 and cfg.side == 500.0
        assert cfg.boundary is BoundaryMode.PLANAR
        assert cfg.cascade.schedule is Schedule.ASYNCHRONOUS
        assert cfg.cascade.seed_spec.rule is SeedRule.TRIPLE
        assert cfg.cascade.cutoff_fraction == 0.9
        assert cfg.cascade.max_steps == 500
        assert cfg.n_runs == 200 and cfg.master_seed == 7
        assert cfg.coefficient == 2.5

    def test_enum_values_in_any_case(self):
        cfg = parse_config("phi=0.1\nR=16\nboundary=Planar\nschedule=ASYNCHRONOUS\n"
                           "seed_rule=Triple\nscheme=PowerLaw\ndelta=2\n")
        assert cfg.boundary is BoundaryMode.PLANAR
        assert cfg.cascade.schedule is Schedule.ASYNCHRONOUS
        assert cfg.cascade.seed_spec.rule is SeedRule.TRIPLE
        assert cfg.scheme.kind is SchemeKind.POWER_LAW

    def test_explicit_seeds(self):
        cfg = parse_config("phi=0.1\nR=16\nseed_rule=explicit\nseed_nodes=4, 9, 2\n")
        assert cfg.cascade.seed_spec.rule is SeedRule.EXPLICIT
        assert cfg.cascade.seed_spec.nodes == (4, 9, 2)


class TestErrors:
    def test_phi_out_of_range_names_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("R = 16\nphi = 1.5\n")
        assert err.value.key == "phi" and err.value.line == 2

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi = 0.1\nR = 16\nvolume = 3\n")
        assert err.value.key == "volume" and err.value.line == 3

    def test_type_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi = fast\nR = 16\n")
        assert err.value.key == "phi" and err.value.line == 1

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi = 0.1\n")
        assert err.value.key == "R"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi = 0.1\nphi = 0.2\nR = 16\n")
        assert err.value.line == 2

    def test_unclosed_block(self):
        with pytest.raises(ConfigError):
            parse_config("phi=0.1\nR=16\nscheme {\nkind = uniform\n")

    def test_garbage_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi = 0.1\nR = 16\nnonsense\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("doc,key,line", [
        ("phi = 0.1\nR = nan\n", "R", 2),
        ("phi = 0.1\nR = 16\nL = nan\n", "L", 3),
        ("phi = 0.1\nR = 16\nc = nan\n", "c", 3),
        ("phi = 0.1\nR = 16\np_r = nan\n", "p_r", 3),
        ("phi = 0.1\nR = 16\nscheme = powerlaw\ndelta = nan\n", "delta", 4),
        ("phi = 0.1\nR = 16\nscheme = cutoff\nd_c = nan\n", "d_c", 4),
    ])
    def test_nan_rejected_at_its_key(self, doc, key, line):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.key == key and err.value.line == line

    @pytest.mark.parametrize("key", ["n_runs", "n_nodes", "max_steps", "master_seed"])
    def test_infinite_integer_rejected_at_its_key(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(f"phi = 0.1\nR = 16\n{key} = inf\n")
        assert err.value.key == key and err.value.line == 3

    @pytest.mark.parametrize("doc,key,line", [
        ("phi = 0.1\nR = inf\n", "R", 2),
        ("phi = 0.1\nR = 16\nL = inf\n", "L", 3),
        ("phi = 0.1\nR = 16\nc = inf\n", "c", 3),
        ("phi = 0.1\nR = 16\np_r = inf\n", "p_r", 3),
    ], ids=["R", "L", "c", "p_r"])
    def test_infinite_real_rejected_at_its_key(self, doc, key, line):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.key == key and err.value.line == line

    @pytest.mark.parametrize("key,value", [
        ("boundary", "tor"), ("schedule", "sync"), ("schedule", "a"),
        ("scheme", "power_law"), ("scheme", "power-law"), ("seed_rule", "tri"),
    ])
    def test_enum_takes_only_its_documented_values(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"phi = 0.1\nR = 16\n{key} = {value}\n")
        assert err.value.key == key and err.value.line == 3

    def test_seed_ids_beyond_node_count_rejected_at_their_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi = 0.1\nR = 16\nseed_rule = explicit\nseed_nodes = 3, 999\nn_nodes = 50\n")
        assert err.value.key == "seed_nodes" and err.value.line == 4

    def test_fractional_integer_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi=0.1\nR=16\nn_runs=10.5\n")
        assert err.value.key == "n_runs"


class TestScheme:
    def test_flat_cutoff_spelling(self):
        cfg = parse_config("phi=0.12\nR=16\nscheme = cutoff\nd_c = 300\np_r = 0.01\n")
        assert cfg.scheme.kind is SchemeKind.CUTOFF
        assert cfg.scheme.d_c == 300.0 and cfg.scheme.p_r == 0.01

    def test_block_spelling(self):
        text = "phi=0.12\nR=16\nscheme {\n  kind = powerlaw\n  p_r = 0.02\n  delta = 2\n}\n"
        cfg = parse_config(text)
        assert cfg.scheme.kind is SchemeKind.POWER_LAW
        assert cfg.scheme.delta == 2.0 and cfg.scheme.p_r == 0.02

    def test_block_and_flat_conflict(self):
        text = "phi=0.12\nR=16\np_r = 0.01\nscheme {\n kind = uniform\n}\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_inconsistent_scheme_parameters(self):
        with pytest.raises(ConfigError):
            parse_config("phi=0.12\nR=16\nscheme = uniform\nd_c = 300\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config("phi=0.12\nR=16\nscheme = exponential\n")
        assert err.value.key == "scheme"


class TestSweepBlock:
    def test_one_axis(self):
        text = "phi=0.05\nR=12\nsweep {\n axis1 = R\n values1 = 11, 12, 13\n}\n"
        spec = parse_config(text)
        assert isinstance(spec, SweepSpec)
        assert spec.axis1.name == "R" and spec.axis1.values == (11.0, 12.0, 13.0)
        assert spec.axis2 is None
        assert spec.base.phi == 0.05

    def test_two_axes(self):
        text = (
            "phi=0.05\nR=12\n"
            "sweep {\n axis1 = phi\n values1 = 0.05, 0.1\n axis2 = R\n values2 = 11, 13\n}\n"
        )
        spec = parse_config(text)
        assert spec.axis2.name == "R" and spec.axis2.values == (11.0, 13.0)

    def test_bad_axis_name(self):
        text = "phi=0.05\nR=12\nsweep {\n axis1 = volume\n values1 = 1, 2\n}\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_non_increasing_grid(self):
        text = "phi=0.05\nR=12\nsweep {\n axis1 = R\n values1 = 13, 11\n}\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_nan_in_grid_names_the_axis(self):
        text = "phi=0.05\nR=12\nsweep {\n axis1 = R\n values1 = 12, nan, 11\n}\n"
        with pytest.raises(ConfigError, match="strictly increasing") as err:
            parse_config(text)
        assert err.value.key == "axis1" and err.value.line == 4

    def test_fractional_node_counts_rejected(self):
        text = "phi=0.05\nR=12\nsweep {\n axis1 = n_nodes\n values1 = 399.5, 400.7\n}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == "axis1" and err.value.line == 4

    def test_axis2_needs_values2(self):
        text = "phi=0.05\nR=12\nsweep {\n axis1 = R\n values1 = 11, 13\n axis2 = phi\n}\n"
        with pytest.raises(ConfigError):
            parse_config(text)


class TestEcho:
    def test_echo_is_deterministic_and_complete(self):
        cfg = parse_config("phi=0.12\nR=16\nscheme=cutoff\nd_c=300\np_r=0.01\n")
        echo = describe_config(cfg)
        assert echo == describe_config(parse_config("phi=0.12\nR=16\nscheme=cutoff\nd_c=300\np_r=0.01\n"))
        for needle in ("phi=0.12", "R=16.0", "scheme='cutoff'", "d_c=300.0", "master_seed=0"):
            assert needle in echo

    def test_sweep_echo_includes_axes(self):
        spec = parse_config("phi=0.05\nR=12\nsweep {\n axis1 = R\n values1 = 11, 13\n}\n")
        assert "axis1=R:[11.0, 13.0]" in describe_sweep(spec)
