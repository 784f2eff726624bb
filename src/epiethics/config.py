"""Plain key=value run configuration.

One `key=value` pair per line, `#` starts a comment, blank lines are
ignored. Every key is declared once, in the `_SCHEMA` table: the
dataclass that owns it (RunConfig, or its params, grid or victim), its
field there, and how its text is parsed and written. Defaults and checks
live in the owning dataclass, so an omitted key takes that dataclass's
default and each value is checked by the dataclass that holds it;
`phi0=auto`, `kappa=auto` and `tol=auto` ask for the derived values, as
a default of None does. Unknown keys, duplicate keys, malformed values
and invariant violations are all rejected with the offending line number
before any solver work starts. serialize_config walks the same table and
emits a canonical text that parses back to an equal RunConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .epidemic import (EpidemicState, ParameterError, PlannerParams,
                       stability_bound)
from .ethics import UtilityTransform, WelfareCriterion, default_criteria
from .planner import GridSpec
from .sensitivity import VictimProfile

__all__ = [
    "ConfigError",
    "RunConfig",
    "criterion_from_spec",
    "criterion_spec",
    "parse_config",
    "serialize_config",
]


class ConfigError(ParameterError):
    """Invalid run configuration.

    keys names the config keys the failed check read, preferred first;
    parse_config reports the line of the first of them the text set.
    """


def _check(ok: bool, msg: str, *keys: str):
    if not ok:
        raise ConfigError(msg, keys)


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, validated on construction."""

    params: PlannerParams
    grid: GridSpec
    S0: float = 0.98
    I0: float = 0.02
    horizon: float = 20.0
    dt: float = 1.0 / 365.0
    tol: Optional[float] = None        # None: solver default 1e-8 * w
    max_iters: int = 500
    output_stride: int = 1
    criteria: tuple = field(default_factory=default_criteria)
    samples: int = 1000
    seed: int = 0
    pop_cap: int = 8
    level_min: float = -10.0
    level_max: float = 10.0
    reference_pop: tuple = (50.0, 50.0)
    victim: VictimProfile = VictimProfile()
    ladder: tuple = (0.0, 10.0, 20.0, 40.0)
    out_dir: str = "out"

    def __post_init__(self):
        _check(self.tol is None or self.tol > 0.0, "tol must be positive",
               "tol")
        for key in ("S0", "I0"):
            v = getattr(self, key)
            _check(0.0 <= v <= 1.0, f"{key} must lie in [0, 1], got {v!r}",
                   key)
        total = self.S0 + self.I0
        _check(total <= 1.0 + 1e-12,
               f"S0 + I0 must not exceed 1, got {total!r}", "I0", "S0")
        _check(self.horizon > 0.0, "horizon must be positive", "horizon")
        _check(self.dt > 0.0, "dt must be positive", "dt")
        bound = stability_bound(self.params)
        _check(self.dt <= bound * (1.0 + 1e-12),
               f"dt={self.dt!r} exceeds the stability bound "
               f"0.1/max(beta_contact, gamma) = {bound!r}",
               "dt", "beta_contact", "gamma")
        _check(self.max_iters >= 1, "max_iters must be at least 1",
               "max_iters")
        _check(self.output_stride >= 1, "output_stride must be at least 1",
               "output_stride")
        _check(len(self.criteria) > 0,
               "criteria must list at least one criterion", "criteria")
        _check(self.samples >= 1, "samples must be at least 1", "samples")
        _check(self.seed >= 0, "seed must be >= 0", "seed")
        _check(self.pop_cap >= 2, "pop_cap must be at least 2", "pop_cap")
        _check(self.level_min < self.level_max,
               "level_min must be strictly below level_max",
               "level_max", "level_min")
        _check(len(self.reference_pop) > 0,
               "reference_pop must list at least one level", "reference_pop")
        _check(all(v >= 0.0 for v in self.ladder),
               "ladder costs must be non-negative", "ladder")
        _check(bool(self.out_dir), "out_dir must not be empty", "out_dir")

    def state0(self) -> EpidemicState:
        rest = max(0.0, (1.0 - self.S0) - self.I0)
        return EpidemicState(S=self.S0, I=self.I0, R=rest)

    def level_range(self):
        return (self.level_min, self.level_max)


def criterion_from_spec(spec: str) -> WelfareCriterion:
    """Parse `KIND[:c=X][:rd=X][:u=identity|powETA]` into a criterion."""
    parts = [p.strip() for p in spec.strip().split(":")]
    kind = parts[0]
    kwargs = {}
    u = None
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"criterion option {part!r} is not name=value")
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if name == "c":
            kwargs["c"] = _parse_float("criteria", value)
        elif name == "rd":
            kwargs["rank_discount"] = _parse_float("criteria", value)
        elif name == "u":
            if value == "identity":
                u = UtilityTransform()
            elif value.startswith("pow"):
                eta = _parse_float("criteria", value[3:])
                u = UtilityTransform(kind="power", eta=eta)
            else:
                raise ConfigError(
                    f"criterion transform {value!r} not recognised "
                    f"(use identity or pow<eta>)")
        else:
            raise ConfigError(f"unknown criterion option {name!r}")
    if u is not None:
        kwargs["u"] = u
    try:
        return WelfareCriterion(kind, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def criterion_spec(crit: WelfareCriterion) -> str:
    """Inverse of criterion_from_spec (round-trips exactly)."""
    bits = [crit.kind]
    if crit.c != 0.0:
        bits.append(f"c={crit.c!r}")
    if crit.kind == "RDCLU":
        bits.append(f"rd={crit.rank_discount!r}")
    if crit.u.kind == "power":
        bits.append(f"u=pow{crit.u.eta!r}")
    return ":".join(bits)


def _parse_float(key, value):
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return out


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {value!r}") from None


def _listed(parse, fmt):
    # A comma-separated list of items; blank items are skipped.
    return (lambda key, value: tuple(parse(key, p.strip())
                                     for p in value.split(",") if p.strip()),
            lambda values: ",".join(fmt(v) for v in values))


# Value kinds, as (parse(key, text) -> value, format(value) -> text).
_FLOAT = (_parse_float, repr)
_INT = (_parse_int, repr)
_FLOATS = _listed(_parse_float, repr)
_CRITERIA = _listed(lambda key, spec: criterion_from_spec(spec),
                    criterion_spec)
_TEXT = (lambda key, value: value, str)

# Every config key in canonical order, as (owner, field, kind). The owner
# is the RunConfig field holding the dataclass that stores and checks the
# value, or None for RunConfig itself.
_SCHEMA = {
    "beta_contact": ("params", "beta_contact", _FLOAT),
    "gamma": ("params", "gamma", _FLOAT),
    "phi0": ("params", "phi0", _FLOAT),
    "kappa": ("params", "kappa", _FLOAT),
    "theta": ("params", "theta", _FLOAT),
    "L_bar": ("params", "L_bar", _FLOAT),
    "tau": ("params", "tau", _INT),
    "r": ("params", "r", _FLOAT),
    "nu": ("params", "nu", _FLOAT),
    "w": ("params", "w", _FLOAT),
    "cost_per_death": ("params", "cost_per_death", _FLOAT),
    "chi": ("params", "chi", _FLOAT),
    "n_S": ("grid", "n_S", _INT),
    "n_I": ("grid", "n_I", _INT),
    "n_L": ("grid", "n_L", _INT),
    "tol": (None, "tol", _FLOAT),
    "max_iters": (None, "max_iters", _INT),
    "S0": (None, "S0", _FLOAT),
    "I0": (None, "I0", _FLOAT),
    "horizon": (None, "horizon", _FLOAT),
    "dt": (None, "dt", _FLOAT),
    "output_stride": (None, "output_stride", _INT),
    "criteria": (None, "criteria", _CRITERIA),
    "samples": (None, "samples", _INT),
    "seed": (None, "seed", _INT),
    "pop_cap": (None, "pop_cap", _INT),
    "level_min": (None, "level_min", _FLOAT),
    "level_max": (None, "level_max", _FLOAT),
    "reference_pop": (None, "reference_pop", _FLOATS),
    "victim_lived": ("victim", "lived", _FLOAT),
    "victim_remaining": ("victim", "remaining", _FLOAT),
    "exchange_rate": ("victim", "exchange_rate", _FLOAT),
    "ladder": (None, "ladder", _FLOATS),
    "out_dir": (None, "out_dir", _TEXT),
}
KEY_ORDER = tuple(_SCHEMA)

# RunConfig last: it is built from the others.
_OWNERS = {"params": PlannerParams, "grid": GridSpec,
           "victim": VictimProfile, None: RunConfig}
_KEY_OF = {(owner, name): key for key, (owner, name, _) in _SCHEMA.items()}
# "auto" spells a field whose default None asks for a derived value.
_AUTO = {_KEY_OF[owner, f.name] for owner, cls in _OWNERS.items()
         for f in fields(cls) if f.default is None}


def _build(owner, kwargs, lines):
    # Construct a validated owner. A failed check names its keys (the
    # fields of PlannerParams and GridSpec are named as their keys), or
    # else its message starts with the field; point at the line of the
    # first of those keys that the text set.
    try:
        return _OWNERS[owner](**kwargs)
    except ValueError as exc:
        keys = (getattr(exc, "keys", ())
                or (_KEY_OF.get((owner, str(exc).partition(" ")[0])),))
        line = next((lines[k] for k in keys if k in lines), None)
        msg = str(exc) if line is None else f"line {line}: {exc}"
        raise ConfigError(msg) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate key=value configuration text."""
    lines = {}
    kwargs = {owner: {} for owner in _OWNERS}
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {ln}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(
                f"line {ln}: duplicate key {key!r} "
                f"(first set on line {lines[key]})")
        lines[key] = ln
        owner, name, (parse, _) = _SCHEMA[key]
        try:
            kwargs[owner][name] = (None if value == "auto" and key in _AUTO
                                   else parse(key, value))
        except ValueError as exc:
            raise ConfigError(f"line {ln}: {exc}") from exc

    run = kwargs.pop(None)
    for owner, values in kwargs.items():
        run[owner] = _build(owner, values, lines)
    return _build(None, run, lines)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    out = []
    for key, (owner, name, (_, fmt)) in _SCHEMA.items():
        value = getattr(cfg if owner is None else getattr(cfg, owner), name)
        out.append(f"{key}={'auto' if value is None else fmt(value)}")
    return "\n".join(out) + "\n"
