"""Executable social welfare orders over variable-size populations.

An Allocation is a finite list of lifetime well-being levels, one per
person. A WelfareCriterion turns an allocation into a real number; the
induced order is compared with a small relative indifference tolerance.
Five criteria are supported:

  CU     classical utilitarianism: sum of transformed levels
  TU     total utilitarianism: critical-level sum with c = 0
  CLU    critical-level utilitarianism: sum of (u(x) - u(c))
  AU     average utilitarianism: mean of transformed levels
  RDCLU  rank-discounted critical-level utilitarianism: after sorting
         ascending, rank r gets weight rank_discount**r

check_axiom runs seeded randomized searches for counterexamples to the
classic axioms A1-A8 on small universes, so every reported witness is
replayable and small enough to verify by hand. Verdicts are statements
about the sampled universe, not proofs. Except for A6 and A7, whose
draws depend on earlier results, a checker first draws all of its cases
and then evaluates them in one vectorised batch per population size;
the first failing case in draw order becomes the witness.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "Allocation",
    "AxiomReport",
    "MatrixCell",
    "Ordering",
    "PropertyMatrix",
    "UtilityTransform",
    "WelfareCriterion",
    "Witness",
    "check_axiom",
    "compare",
    "criterion_value",
    "default_criteria",
    "property_matrix",
    "replay_witness",
    "repugnant_witness",
    "very_sadistic_witness",
]

AXIOM_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8")

AXIOM_TITLES = {
    "A1": "order (complete, reflexive, transitive)",
    "A2": "continuity (bounded difference-quotient proxy)",
    "A3": "Suppes-Sen dominance",
    "A4": "existence independence of the best off",
    "A5": "existence independence of the worst off",
    "A6": "existence of a critical level",
    "A7": "existence of egalitarian equivalence",
    "A8": "same-number consistency across common subpopulations",
}


class Ordering(Enum):
    StrictlyWorse = -1
    Indifferent = 0
    StrictlyBetter = 1


@dataclass(frozen=True)
class Allocation:
    """A nonempty population of finite well-being levels."""

    levels: tuple

    def __post_init__(self):
        lv = tuple(float(v) for v in self.levels)
        if not lv:
            raise ValueError("allocation must contain at least one person")
        if not all(math.isfinite(v) for v in lv):
            raise ValueError("allocation levels must be finite")
        object.__setattr__(self, "levels", lv)

    @classmethod
    def of(cls, *levels) -> "Allocation":
        return cls(tuple(levels))

    @classmethod
    def uniform(cls, level: float, n: int) -> "Allocation":
        if n < 1:
            raise ValueError("population size must be at least 1")
        return cls((float(level),) * n)

    def append(self, *levels) -> "Allocation":
        return Allocation(self.levels + tuple(float(v) for v in levels))

    def __len__(self):
        return len(self.levels)

    def __str__(self):
        return "(" + ",".join(f"{v:g}" for v in self.levels) + ")"


@dataclass(frozen=True)
class UtilityTransform:
    """Continuous increasing map applied to levels before aggregation.

    kinds: "identity"; "power" with exponent eta in (0, 1), applied as
    sign(v)*|v|**eta so it stays increasing on negatives.
    """

    kind: str = "identity"
    eta: float = 0.0

    def __post_init__(self):
        if self.kind == "power":
            if not 0.0 < self.eta < 1.0:
                raise ValueError("power exponent eta must lie in (0, 1)")
        elif self.kind != "identity":
            raise ValueError(f"unknown transform kind {self.kind!r}")

    def __call__(self, v):
        arr = np.asarray(v, dtype=float)
        if self.kind == "identity":
            out = arr
        else:
            out = np.sign(arr) * np.abs(arr) ** self.eta
        return float(out) if out.ndim == 0 else out

    def spec(self) -> str:
        if self.kind == "identity":
            return "identity"
        return f"pow{self.eta!r}"


IDENTITY = UtilityTransform()

_KINDS = ("CU", "TU", "CLU", "AU", "RDCLU")


@dataclass(frozen=True)
class WelfareCriterion:
    """One of the five supported social welfare orders."""

    kind: str
    c: float = 0.0                  # critical level (CLU / RDCLU only)
    rank_discount: float = 0.0      # per-rank discount (RDCLU only), in (0, 1)
    u: UtilityTransform = IDENTITY

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError("critical level c must be non-negative")
        if self.kind == "RDCLU":
            if not 0.0 < self.rank_discount < 1.0:
                raise ValueError("RDCLU needs rank_discount in (0, 1)")
        elif self.rank_discount != 0.0:
            raise ValueError(f"{self.kind} takes no rank discount")
        # A field the criterion ignores is rejected rather than carried
        # into its spec, where it would change the config's hash.
        if self.kind not in ("CLU", "RDCLU") and self.c != 0.0:
            raise ValueError(f"{self.kind} fixes the critical level at 0")

    @property
    def label(self) -> str:
        bits = []
        if self.kind in ("CLU", "RDCLU"):
            bits.append(f"c={self.c:g}")
        if self.kind == "RDCLU":
            bits.append(f"rd={self.rank_discount:g}")
        if self.u.kind != "identity":
            bits.append(f"u={self.u.spec()}")
        return self.kind + ("(" + ",".join(bits) + ")" if bits else "")


def default_criteria() -> tuple:
    """The five criteria exercised by the reports and the test suite."""
    return (
        WelfareCriterion("CU"),
        WelfareCriterion("TU"),
        WelfareCriterion("CLU", c=1.0),
        WelfareCriterion("AU"),
        WelfareCriterion("RDCLU", c=1.0, rank_discount=0.9),
    )


def _welfare(levels: np.ndarray, crit: WelfareCriterion) -> np.ndarray:
    """Welfare of each row of a (k, n) array of levels.

    Each row is sorted ascending before aggregation, so a value is
    exactly invariant under permutations of its row.
    """
    n = levels.shape[1]
    u = crit.u(np.sort(levels, axis=1))
    if crit.kind == "CU":
        return np.sum(u, axis=1)
    if crit.kind in ("TU", "CLU"):
        uc = float(crit.u(crit.c if crit.kind == "CLU" else 0.0))
        return np.sum(u - uc, axis=1)
    if crit.kind == "AU":
        return np.sum(u, axis=1) / n
    # RDCLU: ascending rank r = 1..n gets weight rank_discount**r
    uc = float(crit.u(crit.c))
    weights = crit.rank_discount ** np.arange(1, n + 1, dtype=float)
    return np.sum(weights * (u - uc), axis=1)


def _criterion_values(rows, crit: WelfareCriterion) -> np.ndarray:
    """Welfare of each row of levels, one _welfare pass per row length.

    Grouping rows by length, rather than padding them, keeps every value
    bit-identical to the one-row evaluation of criterion_value.
    """
    values = np.empty(len(rows))
    by_length = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for idx in by_length.values():
        values[idx] = _welfare(np.array([rows[i] for i in idx], dtype=float),
                               crit)
    return values


def criterion_value(x: Allocation, crit: WelfareCriterion) -> float:
    """Real-valued welfare of an allocation under a criterion.

    Levels are sorted ascending before aggregation, so the value is
    exactly invariant under permutations.
    """
    return float(_welfare(np.array([x.levels]), crit)[0])


def _uniform_value(level: float, n, crit: WelfareCriterion):
    """criterion_value of n copies of one level, in closed form.

    n may be an integer array; used by the witness searches so that
    population sizes up to 1e5 stay cheap.
    """
    n = np.asarray(n, dtype=float)
    uv = float(crit.u(level))
    if crit.kind == "CU":
        out = n * uv
    elif crit.kind in ("TU", "CLU"):
        uc = float(crit.u(crit.c if crit.kind == "CLU" else 0.0))
        out = n * (uv - uc)
    elif crit.kind == "AU":
        out = np.full_like(n, uv)
    else:
        b = crit.rank_discount
        uc = float(crit.u(crit.c))
        out = (uv - uc) * b * (1.0 - b ** n) / (1.0 - b)
    return float(out) if out.ndim == 0 else out


def _orders(va, vb) -> np.ndarray:
    """Ordering codes (-1, 0, 1) of va against vb, elementwise.

    Values within 1e-12 relative (absolute below magnitude 1) are
    indifferent (0).
    """
    tol = 1e-12 * np.maximum(1.0, np.maximum(abs(va), abs(vb)))
    return np.where(abs(va - vb) <= tol, 0, (va > vb) * 2 - 1)


def compare(x: Allocation, y: Allocation, crit: WelfareCriterion) -> Ordering:
    """Order x against y; ties within 1e-12 relative are Indifferent."""
    return Ordering(int(_orders(criterion_value(x, crit),
                                criterion_value(y, crit))))


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample (or construction) found by a checker."""

    kind: str
    payload: dict

    def describe(self) -> str:
        parts = []
        for k, v in self.payload.items():
            if isinstance(v, Allocation):
                parts.append(f"{k}={v}")
            elif isinstance(v, Ordering):
                parts.append(f"{k}={v.name}")
            elif isinstance(v, float):
                parts.append(f"{k}={v:g}")
            else:
                parts.append(f"{k}={v}")
        return "; ".join(parts)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one randomized axiom check.

    verdict is "pass", "fail" or — for the existential axioms A6/A7 —
    "not-found-within-budget", which is weaker than "fail". Witnesses
    replay deterministically from the stored allocations.
    """

    axiom: str
    criterion: str
    samples: int
    verdict: str
    witness: Optional[Witness] = None
    seed: int = 0
    notes: str = ""

    def line(self) -> str:
        extra = f" [{self.notes}]" if self.notes else ""
        wit = f" witness: {self.witness.describe()}" if self.witness else ""
        return (f"{self.axiom} {AXIOM_TITLES[self.axiom]} | {self.criterion} "
                f"| {self.verdict}{extra}{wit}")


def _rand_levels(rng, pop_cap, lo, hi) -> np.ndarray:
    n = int(rng.integers(1, pop_cap + 1))
    return rng.uniform(lo, hi, n)


def _case_values(cases, crit) -> np.ndarray:
    """Welfare of every row of every case, shape (cases, rows per case)."""
    width = len(cases[0])
    rows = [row for case in cases for row in case]
    return _criterion_values(rows, crit).reshape(len(cases), width)


def _first(mask) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _alloc(levels) -> Allocation:
    return Allocation(tuple(levels))


# Hand-checkable probe instances tried before random sampling, so that
# criteria with textbook failures report small reproducible witnesses.
_A4_PROBES = [((1.0,), (0.6, 1.5), 3.0)]
_A5_PROBES = [((10.0,), (1.0, 1.0, 1.0), -20.0)]
_A8_PROBES = [((0.0, 20.0), (4.0, 5.0), (4.5,), (30.0,))]
_NEG_EXPANSION_PROBES = [((-10.0, -10.0), -1.0)]

# The batched checkers below draw every case first, in the order a
# case-by-case loop would, evaluate all of them with one
# _criterion_values call, and report the first failing case in that
# order; only that case is turned into Allocations for its witness.


def _check_order(crit, rng, samples, lo, hi, pop_cap):
    cases = [[_rand_levels(rng, pop_cap, lo, hi) for _ in range(3)]
             for _ in range(samples)]
    vx, vy, vz = _case_values(cases, crit).T
    reflexive = _orders(vx, vx) == 0
    xy, yz, xz = _orders(vx, vy), _orders(vy, vz), _orders(vx, vz)
    intransitive = (xy >= 0) & (yz >= 0) & (xz < 0)
    i = _first(~reflexive | intransitive)
    if i is None:
        return "pass", None
    x, y, z = (_alloc(r) for r in cases[i])
    if not reflexive[i]:
        return "fail", Witness("reflexivity", {"x": x})
    return "fail", Witness("transitivity",
                           {"x": x, "y": y, "z": z,
                            "x_vs_y": Ordering(int(xy[i])),
                            "y_vs_z": Ordering(int(yz[i])),
                            "x_vs_z": Ordering(int(xz[i]))})


_CONTINUITY_DELTAS = (1e-4, 1e-6, 1e-8)


def _check_continuity(crit, rng, samples, lo, hi, pop_cap):
    # Proxy: perturbing one level by delta moves the value by at most
    # K*delta for a finite empirical K, and the change vanishes with
    # delta. This is a bounded-modulus proxy, not topological continuity.
    # worst[i, j] is the running maximum quotient after delta j of
    # sample i, as a sample-by-sample loop would hold it.
    drawn, cases = [], []
    for _ in range(samples):
        x = _rand_levels(rng, pop_cap, lo, hi)
        k = int(rng.integers(0, len(x)))
        case = [x]
        for delta in _CONTINUITY_DELTAS:
            bumped = x.copy()
            bumped[k] += delta
            case.append(bumped)
        drawn.append((x, k))
        cases.append(case)
    v = _case_values(cases, crit)
    change = np.abs(v[:, 1:] - v[:, :1])
    quotients = (change / np.asarray(_CONTINUITY_DELTAS)).ravel()
    # A running max from 0 that, like max(), passes over NaN quotients.
    worst = np.fmax.accumulate(np.append(0.0, quotients))[1:].reshape(
        change.shape)
    grows = change[:, 1:] > change[:, :-1] + 1e-9
    blows_up = ~np.isfinite(worst[:, -1]) | (worst[:, -1] > 1e9)
    i = _first(grows.any(axis=1) | blows_up)
    if i is None:
        return "pass", None, float(worst[-1, -1])
    x, k = drawn[i]
    if grows[i].any():
        j = int(np.argmax(grows[i])) + 1
        return "fail", Witness("continuity",
                               {"x": _alloc(x), "index": k,
                                "delta": _CONTINUITY_DELTAS[j]}), \
            float(worst[i, j])
    worst_k = float(worst[i, -1])
    return "fail", Witness("continuity",
                           {"x": _alloc(x), "index": k,
                            "quotient": worst_k}), worst_k


def _check_suppes_sen(crit, rng, samples, lo, hi, pop_cap):
    # Construct pairs where x rank-dominates y strictly, then require
    # strict preference.
    cases = []
    for _ in range(samples):
        y = _rand_levels(rng, pop_cap, lo, hi)
        bumps = rng.uniform(0.1, 1.0, len(y))
        perm = rng.permutation(len(y))
        cases.append(((np.sort(y) + bumps)[perm], y))
    v = _case_values(cases, crit)
    i = _first(_orders(v[:, 0], v[:, 1]) != 1)
    if i is None:
        return "pass", None
    x, y = cases[i]
    return "fail", Witness("dominance", {"x": _alloc(x), "y": _alloc(y)})


def _existence_independence(crit, rng, samples, lo, hi, pop_cap, best):
    probes = _A4_PROBES if best else _A5_PROBES
    drawn = [(np.array(px), np.array(py), pz) for px, py, pz in probes]
    for _ in range(samples):
        x = _rand_levels(rng, pop_cap, lo, hi)
        y = _rand_levels(rng, pop_cap, lo, hi)
        gap = rng.uniform(0.0, 2.0)
        z = max(x.max(), y.max()) + gap if best \
            else min(x.min(), y.min()) - gap
        drawn.append((x, y, float(z)))
    v = _case_values([(x, y, np.append(x, z), np.append(y, z))
                      for x, y, z in drawn], crit)
    before, after = _orders(v[:, 0], v[:, 1]), _orders(v[:, 2], v[:, 3])
    i = _first(before != after)
    if i is None:
        return "pass", None
    x, y, z = drawn[i]
    return "fail", Witness("independence",
                           {"x": _alloc(x), "y": _alloc(y), "z": z,
                            "before": Ordering(int(before[i])),
                            "after": Ordering(int(after[i]))})


def _check_critical_level(crit, rng, samples, lo, hi, pop_cap):
    # Existential: some c >= 0 such that appending a person at c to any
    # sampled allocation whose levels are all <= c leaves the order
    # indifferent.
    candidates = []
    if crit.kind in ("CLU", "RDCLU"):
        candidates.append(crit.c)
    candidates += [0.0, 1.0, 0.5 * (lo + hi), hi]
    seen = set()
    for c in candidates:
        if c < 0.0 or c in seen or c < lo:
            continue
        seen.add(c)
        tested = 0
        ok = True
        for _ in range(samples):
            n = int(rng.integers(1, pop_cap + 1))
            x = Allocation(tuple(rng.uniform(lo, min(c, hi), n)))
            tested += 1
            if compare(x.append(c), x, crit) is not Ordering.Indifferent:
                ok = False
                break
        if ok and tested >= min(10, samples):
            return "pass", Witness("critical-level", {"c": c}), c
    return "not-found-within-budget", None, None


def _check_egalitarian_equivalence(crit, rng, samples, lo, hi, pop_cap):
    # Existential: for sampled strict pairs x > y, search a level z and a
    # population size n <= pop_cap with y < (z)_n < x, preferring the
    # largest n the budget allows.
    pairs_budget = min(samples, 50)
    found_all = True
    example = None
    for _ in range(pairs_budget):
        x = y = None
        for _ in range(200):
            cx = _alloc(_rand_levels(rng, pop_cap, lo, hi))
            cy = _alloc(_rand_levels(rng, pop_cap, lo, hi))
            if compare(cx, cy, crit) is Ordering.StrictlyBetter:
                x, y = cx, cy
                break
        if x is None:
            continue
        vx = criterion_value(x, crit)
        vy = criterion_value(y, crit)
        target = 0.5 * (vx + vy)
        hit = None
        span = hi - lo
        for n in range(pop_cap, 0, -1):
            z_lo, z_hi = lo - 2.0 * span, hi + 2.0 * span
            if not (_uniform_value(z_lo, n, crit) <= target
                    <= _uniform_value(z_hi, n, crit)):
                continue
            for _ in range(200):   # bisect the monotone uniform value
                z_mid = 0.5 * (z_lo + z_hi)
                if _uniform_value(z_mid, n, crit) < target:
                    z_lo, moved = z_mid, z_mid != z_lo
                else:
                    z_hi, moved = z_mid, z_mid != z_hi
                if not moved:
                    break    # a fixed point: every later step repeats it
            z = 0.5 * (z_lo + z_hi)
            zn = Allocation.uniform(z, n)
            if (compare(zn, y, crit) is Ordering.StrictlyBetter
                    and compare(zn, x, crit) is Ordering.StrictlyWorse):
                hit = (z, n)
                break
        if hit is None:
            found_all = False
            break
        example = Witness("egalitarian-equivalent",
                          {"x": x, "y": y, "z": hit[0], "n": hit[1]})
    if found_all:
        return "pass", example
    return "not-found-within-budget", None


def _check_same_number(crit, rng, samples, lo, hi, pop_cap):
    drawn = [tuple(np.array(p) for p in probe) for probe in _A8_PROBES]
    for _ in range(samples):
        n = int(rng.integers(1, pop_cap + 1))
        m = int(rng.integers(1, pop_cap + 1))
        drawn.append((rng.uniform(lo, hi, n), rng.uniform(lo, hi, n),
                      rng.uniform(lo, hi, m), rng.uniform(lo, hi, m)))
    vals = _case_values([(np.concatenate((x, u)), np.concatenate((y, u)),
                          np.concatenate((x, v)), np.concatenate((y, v)))
                         for x, y, u, v in drawn], crit)
    with_u = _orders(vals[:, 0], vals[:, 1])
    with_v = _orders(vals[:, 2], vals[:, 3])
    i = _first(with_u != with_v)
    if i is None:
        return "pass", None
    x, y, u, v = (_alloc(r) for r in drawn[i])
    return "fail", Witness("same-number",
                           {"x": x, "y": y, "u": u, "v": v,
                            "with_u": Ordering(int(with_u[i])),
                            "with_v": Ordering(int(with_v[i]))})


def check_axiom(crit: WelfareCriterion, axiom: str, samples: int = 1000,
                seed: int = 0, pop_cap: int = 8,
                level_range=(-10.0, 10.0)) -> AxiomReport:
    """Randomized check of one axiom A1-A8 against a criterion.

    The search is seeded and fully deterministic; small hand-checkable
    probe instances are tried before random sampling so that textbook
    failures come back with readable witnesses. A1-A5 and A8 draw all
    their cases first, evaluate them in one batch per population size
    and report the first failing case in draw order, the case a
    case-by-case loop would stop at. A6 and A7 are existential
    constructions, searched case by case, and may report
    "not-found-within-budget", which is weaker than "fail".
    """
    if axiom not in AXIOM_IDS:
        raise ValueError(f"unknown axiom id {axiom!r}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if pop_cap < 2:
        raise ValueError("pop_cap must be at least 2")
    lo, hi = float(level_range[0]), float(level_range[1])
    if not lo < hi:
        raise ValueError("level range must be nondegenerate")
    rng = np.random.default_rng(seed)
    notes = ""
    if axiom == "A1":
        verdict, witness = _check_order(crit, rng, samples, lo, hi, pop_cap)
    elif axiom == "A2":
        verdict, witness, k = _check_continuity(crit, rng, samples, lo, hi,
                                                pop_cap)
        notes = f"proxy check; empirical modulus K={k:.3g}"
    elif axiom == "A3":
        verdict, witness = _check_suppes_sen(crit, rng, samples, lo, hi,
                                             pop_cap)
    elif axiom == "A4":
        verdict, witness = _existence_independence(crit, rng, samples, lo, hi,
                                                   pop_cap, best=True)
    elif axiom == "A5":
        verdict, witness = _existence_independence(crit, rng, samples, lo, hi,
                                                   pop_cap, best=False)
        notes = "appended level placed below every existing one"
    elif axiom == "A6":
        verdict, witness, c = _check_critical_level(crit, rng, samples, lo,
                                                    hi, pop_cap)
        if c is not None:
            notes = f"constructed critical level c={c:g}"
    elif axiom == "A7":
        verdict, witness = _check_egalitarian_equivalence(
            crit, rng, samples, lo, hi, pop_cap)
        notes = f"existential search with population cap {pop_cap}"
    else:
        verdict, witness = _check_same_number(crit, rng, samples, lo, hi,
                                              pop_cap)
    return AxiomReport(axiom=axiom, criterion=crit.label, samples=samples,
                       verdict=verdict, witness=witness, seed=seed,
                       notes=notes)


def replay_witness(crit: WelfareCriterion, report: AxiomReport) -> bool:
    """Re-evaluate a stored fail witness; True if it still fails."""
    if report.witness is None:
        return False
    p = report.witness.payload
    kind = report.witness.kind
    if kind == "reflexivity":
        return compare(p["x"], p["x"], crit) is not Ordering.Indifferent
    if kind == "transitivity":
        ok = (Ordering.StrictlyBetter, Ordering.Indifferent)
        return (compare(p["x"], p["y"], crit) in ok
                and compare(p["y"], p["z"], crit) in ok
                and compare(p["x"], p["z"], crit) not in ok)
    if kind == "dominance":
        return compare(p["x"], p["y"], crit) is not Ordering.StrictlyBetter
    if kind == "independence":
        before = compare(p["x"], p["y"], crit)
        after = compare(p["x"].append(p["z"]), p["y"].append(p["z"]), crit)
        return before is not after
    if kind == "same-number":
        x, y, u, v = p["x"], p["y"], p["u"], p["v"]
        with_u = compare(Allocation(x.levels + u.levels),
                         Allocation(y.levels + u.levels), crit)
        with_v = compare(Allocation(x.levels + v.levels),
                         Allocation(y.levels + v.levels), crit)
        return with_u is not with_v
    if kind == "negative-expansion":
        return compare(p["x"].append(p["z"]), p["x"],
                       crit) is Ordering.StrictlyBetter
    if kind == "repugnant":
        return compare(p["clones"], p["base"],
                       crit) is Ordering.StrictlyBetter
    if kind == "very-sadistic":
        return compare(p["positive"], p["negative"],
                       crit) is Ordering.StrictlyWorse
    if kind == "continuity":
        return True   # recorded quotient blow-up; nothing cheap to re-run
    return False


def repugnant_witness(crit: WelfareCriterion, base: Allocation,
                      epsilon: float, n_max: int) -> Optional[Witness]:
    """Smallest n <= n_max whose n copies of epsilon beat the base.

    Requires 0 < epsilon < every base level. Candidate sizes are located
    with the closed-form uniform value and the hit is confirmed with a
    full criterion evaluation; returns None when no size works.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    if min(base.levels) <= epsilon:
        raise ValueError("every base level must exceed epsilon")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    vb = criterion_value(base, crit)
    ns = np.arange(1, n_max + 1)
    vals = _uniform_value(epsilon, ns, crit)
    strict = _orders(vals, vb) == 1
    if not strict.any():
        return None
    n_hit = int(ns[int(np.argmax(strict))])
    # Confirm with the exact evaluation; the closed form can differ by ulps.
    for n in range(max(1, n_hit - 2), min(n_max, n_hit + 2) + 1):
        clones = Allocation.uniform(epsilon, n)
        if compare(clones, base, crit) is Ordering.StrictlyBetter:
            return Witness("repugnant",
                           {"n": n, "epsilon": epsilon, "base": base,
                            "clones": clones,
                            "clone_value": criterion_value(clones, crit),
                            "base_value": vb})
    return None


_POSITIVE_LEVELS = (0.5, 1.0, 2.0)
_NEGATIVE_ALLOCS = ((-1.0,), (-2.0,), (-5.0,))


def very_sadistic_witness(crit: WelfareCriterion,
                          n_max: int = 1000) -> Optional[Witness]:
    """Search for an all-positive egalitarian allocation ranked strictly
    below some all-negative allocation; returns the first hit scanning
    population size upward, or None.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    best = None
    for vi, v in enumerate(_POSITIVE_LEVELS):
        for nj, neg_levels in enumerate(_NEGATIVE_ALLOCS):
            neg = Allocation(neg_levels)
            vneg = criterion_value(neg, crit)
            ns = np.arange(1, n_max + 1)
            vals = _uniform_value(v, ns, crit)
            strict = _orders(vneg, vals) == 1
            if not strict.any():
                continue
            n_hit = int(ns[int(np.argmax(strict))])
            key = (n_hit, vi, nj)
            if best is None or key < best[0]:
                best = (key, v, neg, n_hit)
    if best is None:
        return None
    _, v, neg, n_hit = best
    for n in range(max(1, n_hit - 2), min(n_max, n_hit + 2) + 1):
        positive = Allocation.uniform(v, n)
        if compare(positive, neg, crit) is Ordering.StrictlyWorse:
            return Witness("very-sadistic",
                           {"n": n, "level": v, "positive": positive,
                            "negative": neg,
                            "positive_value": criterion_value(positive, crit),
                            "negative_value": criterion_value(neg, crit)})
    return None


def _check_negative_expansion(crit, rng, samples, lo, hi, pop_cap):
    drawn = [(np.array(px), pz) for px, pz in _NEG_EXPANSION_PROBES]
    for _ in range(samples):
        x = _rand_levels(rng, pop_cap, lo, hi)
        drawn.append((x, rng.uniform(min(lo, -1e-3), -1e-3)))
    v = _case_values([(np.append(x, z), x) for x, z in drawn], crit)
    i = _first(_orders(v[:, 0], v[:, 1]) == 1)
    if i is None:
        return "pass", None
    x, z = drawn[i]
    return "fail", Witness("negative-expansion", {"x": _alloc(x), "z": z})


# Published classification of these criteria, for side-by-side display:
# "yes" marks a credited property, "" a blank cell, "-" a cell the
# published table does not have (no row for TU; existence independence
# is a single published column, shown beside both A4 and A5; there is
# no published column at all for A8).
_REFERENCE_CLASSIFICATION = {
    "CU": {"utility-independence": "yes", "existence-independence": "yes",
           "negative-expansion": "yes", "repugnance-avoidance": "yes",
           "priority-lives-worth-living": ""},
    "TU": None,
    "CLU": {"utility-independence": "yes", "existence-independence": "yes",
            "negative-expansion": "yes", "repugnance-avoidance": "yes",
            "priority-lives-worth-living": ""},
    "AU": {"utility-independence": "", "existence-independence": "",
           "negative-expansion": "", "repugnance-avoidance": "yes",
           "priority-lives-worth-living": "yes"},
    "RDCLU": {"utility-independence": "", "existence-independence": "",
              "negative-expansion": "yes", "repugnance-avoidance": "yes",
              "priority-lives-worth-living": "yes"},
}

_PROP_TO_REFERENCE_COLUMN = {"A4": "existence-independence",
                             "A5": "existence-independence",
                             "A8": None}

MATRIX_PROPERTIES = (
    "negative-expansion",
    "repugnance-avoidance",
    "A4",
    "A5",
    "A8",
    "utility-independence",
    "priority-lives-worth-living",
)


@dataclass(frozen=True)
class MatrixCell:
    criterion: str
    prop: str
    verdict: str
    witness: Optional[Witness]
    reference: str          # published mark, "" when silent, "-" if no row


@dataclass(frozen=True)
class PropertyMatrix:
    """Machine-checked property verdicts with published marks alongside.

    Computed verdicts and published marks are reported side by side and
    deliberately not reconciled when they disagree.
    """

    cells: tuple

    def rows(self):
        return [(c.criterion, c.prop, c.verdict,
                 c.witness.describe() if c.witness else "")
                for c in self.cells]

    def to_text(self) -> str:
        lines = [f"{'criterion':22} {'property':28} {'computed':26} "
                 f"{'published':9} witness"]
        for c in self.cells:
            wit = c.witness.describe() if c.witness else ""
            lines.append(f"{c.criterion:22} {c.prop:28} {c.verdict:26} "
                         f"{c.reference:9} {wit}")
        return "\n".join(lines)


def property_matrix(criteria, budget: int = 500, seed: int = 0,
                    pop_cap: int = 8, level_range=(-10.0, 10.0),
                    n_max: int = 2000) -> PropertyMatrix:
    """Build the criteria-by-properties verdict matrix.

    Each machine-checkable cell gets `budget` samples. Repugnance
    avoidance searches clone populations up to n_max against the base
    (100) with epsilon 0.1. Utility independence and priority for lives
    worth living are reported but not machine-checked.
    """
    lo, hi = float(level_range[0]), float(level_range[1])
    cells = []
    for ci, crit in enumerate(criteria):
        ref = _REFERENCE_CLASSIFICATION.get(crit.kind)

        def mark(prop):
            if ref is None:
                return "-"
            column = _PROP_TO_REFERENCE_COLUMN.get(prop, prop)
            if column is None:
                return "-"
            return ref.get(column, "")

        rng = np.random.default_rng(seed + 1000 * ci)
        verdict, witness = _check_negative_expansion(crit, rng, budget, lo,
                                                     hi, pop_cap)
        cells.append(MatrixCell(crit.label, "negative-expansion", verdict,
                                witness, mark("negative-expansion")))

        wit = repugnant_witness(crit, Allocation.of(100.0), 0.1, n_max)
        cells.append(MatrixCell(
            crit.label, "repugnance-avoidance",
            "pass" if wit is None else "fail", wit,
            mark("repugnance-avoidance")))

        for axiom in ("A4", "A5", "A8"):
            rep = check_axiom(crit, axiom, samples=budget,
                              seed=seed + 1000 * ci + int(axiom[1]),
                              pop_cap=pop_cap, level_range=(lo, hi))
            cells.append(MatrixCell(crit.label, axiom, rep.verdict,
                                    rep.witness, mark(axiom)))

        for prop in ("utility-independence", "priority-lives-worth-living"):
            cells.append(MatrixCell(crit.label, prop, "not-machine-checked",
                                    None, mark(prop)))
    return PropertyMatrix(tuple(cells))
