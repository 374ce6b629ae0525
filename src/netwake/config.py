"""Experiment configuration documents.

The format is line-based ``key = value`` (``:`` also works) with ``#``
comments. Scheme parameters may be given flat::

    phi = 0.12
    R = 16
    scheme = cutoff
    p_r = 0.01
    d_c = 300

or as a block, which is also how sweeps are declared::

    scheme {
        kind = uniform
        p_r = 0.01
    }
    sweep {
        axis1 = R
        values1 = 11, 12, 13, 14
        axis2 = phi
        values2 = 0.05, 0.10
    }

Unknown keys are rejected; every parse error names the key and line.

This module owns only the syntax, the type conversion and the key/line
attribution. Defaults and range rules live on the types the document
fills in (``ExperimentConfig``, ``CascadeParams``, ``SeedSpec``,
``LinkScheme``, ``SweepAxis``); a value a type rejects is reported
against the key and line that set it.
"""

from __future__ import annotations

from dataclasses import replace

from .cascade import CascadeParams, Schedule, SeedRule, SeedSpec
from .errors import ConfigError
from .geometry import BoundaryMode
from .montecarlo import ExperimentConfig, SweepAxis, SweepSpec
from .smallworld import LinkScheme, SchemeKind


def _tokenize(text: str) -> tuple[dict, dict]:
    """Raw entries, (value text, line number) per key: the top-level ones,
    and those of each block by block name."""
    top: dict[str, tuple[str, int]] = {}
    blocks: dict[str, dict[str, tuple[str, int]]] = {}
    scope: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if scope is not None:
                raise ConfigError("nested blocks are not supported", key=name, line=lineno)
            if name not in _BLOCKS:
                raise ConfigError(f"unknown block {name!r}", key=name, line=lineno)
            if name in blocks:
                raise ConfigError(f"duplicate block {name!r}", key=name, line=lineno)
            scope = name
            blocks[name] = {}
            continue
        if line == "}":
            if scope is None:
                raise ConfigError("unmatched '}'", line=lineno)
            scope = None
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, value = (part.strip() for part in line.split(sep, 1))
        if not key or not value:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        target = top if scope is None else blocks[scope]
        allowed = _TOP_KEYS if scope is None else _BLOCKS[scope]
        if key not in allowed:
            where = f"in block {scope!r}" if scope else "at top level"
            raise ConfigError(f"unknown key {key!r} {where}", key=key, line=lineno)
        if key in target:
            raise ConfigError(f"duplicate key {key!r}", key=key, line=lineno)
        target[key] = (value, lineno)
    if scope is not None:
        raise ConfigError(f"block {scope!r} is never closed", key=scope)
    return top, blocks


def _convert(entry: tuple[str, int], key: str, conv, what: str):
    value, lineno = entry
    try:
        return conv(value)
    except (ValueError, TypeError, OverflowError):  # int(float("inf")) overflows
        raise ConfigError(f"expected {what}, got {value!r}", key=key, line=lineno) from None


def _make(factory, key: str, entry: tuple[str, int] | None, *args, **kwargs):
    """factory(*args, **kwargs), with a ValueError blamed on ``key``'s line."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), key=key, line=entry[1] if entry else None) from None


def _apply(obj, entries: dict[str, tuple[str, int]], fields: dict):
    """Set each present key's field on ``obj``, one key at a time, so the
    type's own validation blames the key that set the failing field."""
    for key, (name, conv, what) in fields.items():
        if key in entries:
            value = _convert(entries[key], key, conv, what)
            obj = _make(replace, key, entries[key], obj, **{name: value})
    return obj


def _comma_list(conv):
    """Converter for a nonempty comma list of ``conv`` values."""
    def parse(text: str) -> tuple:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(conv(p) for p in parts)
    return parse


def _enum(cls):
    """Case-insensitive converter for an enum's values, and what it expects."""
    values = [member.value for member in cls]
    return (lambda text: cls(text.lower())), ", ".join(values[:-1]) + " or " + values[-1]


def _strict_int(text: str) -> int:
    if float(text) != int(float(text)):
        raise ValueError(text)
    return int(float(text))


# Config key -> (field it sets, converter, what the converter expects).
_EXPERIMENT_FIELDS = {
    "n_nodes": ("n_nodes", _strict_int, "an integer"),
    "L": ("side", float, "a number"),
    "boundary": ("boundary", *_enum(BoundaryMode)),
    "c": ("coefficient", float, "a number"),
    "n_runs": ("n_runs", _strict_int, "an integer"),
    "master_seed": ("master_seed", _strict_int, "an integer"),
}
_CASCADE_FIELDS = {
    "schedule": ("schedule", *_enum(Schedule)),
    "cutoff_fraction": ("cutoff_fraction", float, "a number"),
    "max_steps": ("max_steps", _strict_int, "an integer"),
}
_SCHEME_FIELDS = {key: (key, float, "a number") for key in ("p_r", "delta", "d_c")}

# Every key a document may hold, at top level and per block.
_TOP_KEYS = {"phi", "R", "seed_rule", "seed_nodes", "scheme",
             *_EXPERIMENT_FIELDS, *_CASCADE_FIELDS, *_SCHEME_FIELDS}
_BLOCKS = {"scheme": {"kind", *_SCHEME_FIELDS}, "sweep": {"axis1", "values1", "axis2", "values2"}}

# The parameter each scheme kind cannot do without. It is set together
# with the kind, so a missing one is blamed on the kind and a bad one on
# its own key.
_KIND_PARAMETER = {SchemeKind.POWER_LAW: "delta", SchemeKind.CUTOFF: "d_c"}


def _parse_scheme(top: dict[str, tuple[str, int]], block: dict[str, tuple[str, int]] | None) -> LinkScheme:
    flat_keys = {k for k in ("scheme", *_SCHEME_FIELDS) if k in top}
    if block is not None and flat_keys:
        key = sorted(flat_keys)[0]
        raise ConfigError(
            "scheme given both as a block and as flat keys",
            key=key, line=top[key][1],
        )

    if block is not None:
        entries = dict(block)
        kind_key, kind_entry = "kind", entries.pop("kind", None)
        if kind_entry is None:
            raise ConfigError("scheme block needs a 'kind'", key="kind")
    elif flat_keys:
        entries = {k: top[k] for k in flat_keys if k != "scheme"}
        kind_key, kind_entry = "scheme", top.get("scheme")
    else:
        return LinkScheme.none()
    kind = SchemeKind.UNIFORM
    if kind_entry is not None:
        kind = _convert(kind_entry, kind_key, *_enum(SchemeKind))

    own = _KIND_PARAMETER.get(kind)
    if own in entries:
        entry = entries.pop(own)
        value = _convert(entry, own, float, "a number")
        scheme = _make(LinkScheme, own, entry, kind, 0.0, **{own: value})
    else:
        scheme = _make(LinkScheme, kind_key, kind_entry, kind, 0.0)
    return _apply(scheme, entries, _SCHEME_FIELDS)


def _apply_seed_spec(top: dict[str, tuple[str, int]], cfg: ExperimentConfig) -> ExperimentConfig:
    """Set the seed spec last, so that ids outside [0, n_nodes) are blamed
    on the key that gave them."""
    rule, nodes = cfg.cascade.seed_spec.rule, cfg.cascade.seed_spec.nodes
    if "seed_rule" in top:
        rule = _convert(top["seed_rule"], "seed_rule", *_enum(SeedRule))
    if "seed_nodes" in top:
        nodes = _convert(top["seed_nodes"], "seed_nodes", _comma_list(int), "a comma list of node ids")
    key = "seed_nodes" if "seed_nodes" in top else "seed_rule"
    spec = _make(SeedSpec, key, top.get(key), rule, nodes)
    return _make(replace, key, top.get(key), cfg, cascade=replace(cfg.cascade, seed_spec=spec))


def _parse_axis(block: dict[str, tuple[str, int]], n: int) -> SweepAxis:
    key, values_key = f"axis{n}", f"values{n}"
    values = _convert(block[values_key], values_key, _comma_list(float), "a comma list of numbers")
    return _make(SweepAxis, key, block[key], block[key][0], values)


def parse_config(text: str) -> ExperimentConfig | SweepSpec:
    """Parse a config document into an experiment or sweep description.

    ``phi`` and ``R`` are required; every absent key keeps the default of
    the type it would set.
    """
    top, blocks = _tokenize(text)

    for required in ("phi", "R"):
        if required not in top:
            raise ConfigError(f"missing required key {required!r}", key=required)
    phi = _convert(top["phi"], "phi", float, "a number")
    radio_range = _convert(top["R"], "R", float, "a number")

    cascade = _make(CascadeParams, "phi", top["phi"], phi=phi)
    cascade = _apply(cascade, top, _CASCADE_FIELDS)
    base = _make(ExperimentConfig, "R", top["R"], phi=phi, radio_range=radio_range,
                 scheme=_parse_scheme(top, blocks.get("scheme")), cascade=cascade)
    base = _apply(base, top, _EXPERIMENT_FIELDS)
    base = _apply_seed_spec(top, base)

    sweep_block = blocks.get("sweep")
    if sweep_block is None:
        return base

    if "axis1" not in sweep_block or "values1" not in sweep_block:
        raise ConfigError("sweep block needs 'axis1' and 'values1'", key="axis1")
    axis1 = _parse_axis(sweep_block, 1)
    axis2 = None
    if "axis2" in sweep_block or "values2" in sweep_block:
        if "axis2" not in sweep_block or "values2" not in sweep_block:
            raise ConfigError("a second axis needs both 'axis2' and 'values2'", key="axis2")
        axis2 = _parse_axis(sweep_block, 2)
    return SweepSpec(base=base, axis1=axis1, axis2=axis2)


def describe_config(cfg: ExperimentConfig) -> str:
    """Canonical one-line echo of a config, stable across runs."""
    scheme = cfg.scheme
    fields = [
        ("n_nodes", cfg.n_nodes),
        ("L", cfg.side),
        ("boundary", cfg.boundary.value),
        ("R", cfg.radio_range),
        ("phi", cfg.phi),
        ("schedule", cfg.cascade.schedule.value),
        ("seed_rule", cfg.cascade.seed_spec.rule.value),
        ("seed_nodes", list(cfg.cascade.seed_spec.nodes) or None),
        ("cutoff_fraction", cfg.cascade.cutoff_fraction),
        ("max_steps", cfg.cascade.max_steps),
        ("scheme", scheme.kind.value),
        ("p_r", scheme.p_r),
        ("delta", scheme.delta),
        ("d_c", scheme.d_c),
        ("c", cfg.coefficient),
        ("n_runs", cfg.n_runs),
        ("master_seed", cfg.master_seed),
    ]
    return " ".join(f"{name}={value!r}" for name, value in fields)


def describe_sweep(spec: SweepSpec) -> str:
    parts = [describe_config(spec.base), f"axis1={spec.axis1.name}:{list(spec.axis1.values)!r}"]
    if spec.axis2 is not None:
        parts.append(f"axis2={spec.axis2.name}:{list(spec.axis2.values)!r}")
    return " ".join(parts)
