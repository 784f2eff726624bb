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

check_axioms runs seeded randomized searches for counterexamples to the
classic axioms A1-A8 and to negative expansion on small universes, so
every reported witness is replayable and small enough to verify by hand;
check_axiom is its one-criterion case. Every sampled property, those of
the property matrix included, comes from check_axioms: property_matrix
only assembles its reports. Verdicts are statements about the sampled
universe, not proofs. Except for A6 and A7, whose draws depend on
earlier results and so on the criterion, a checker first draws all of
its cases once for every criterion it is given, then evaluates each
criterion on them in one vectorised batch per population size; each
criterion's first failing case in draw order becomes its witness. A6
batches each candidate critical level's cases the same way, for one
criterion, and replays the generator to its first failing case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
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
    "check_axioms",
    "compare",
    "criterion_value",
    "default_criteria",
    "label_number",
    "level_bound",
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
    "negative-expansion": "negative expansion (no added life below zero "
                          "improves)",
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


def label_number(x: float) -> str:
    """The shortest text that reads back as x, without a trailing ".0".

    Distinct numbers get distinct text, so distinct criteria and sweep
    rows get distinct labels ("g" format rounds to six digits).
    """
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


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
            bits.append(f"c={label_number(self.c)}")
        if self.kind == "RDCLU":
            bits.append(f"rd={label_number(self.rank_discount)}")
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


def _rank_weights(n: int, crit: WelfareCriterion):
    """Weight of each ascending rank r = 1..n: rank_discount**r under
    RDCLU, 1 under every other kind."""
    if crit.kind != "RDCLU":
        return 1.0
    return crit.rank_discount ** np.arange(1, n + 1, dtype=float)


def _welfare(levels: np.ndarray, crit: WelfareCriterion) -> np.ndarray:
    """Welfare of each row of a (k, n) array of levels sorted ascending.

    Every kind sums the critical-level gains u(x) - u(c) (Blackorby,
    Bossert & Donaldson 2005), with c = 0 outside CLU and RDCLU and
    u(0) = 0, so CU, TU and CLU differ only in c. RDCLU weights the
    gains by rank and AU averages them. Aggregating sorted rows makes a
    value exactly invariant under permutations of its row.
    """
    n = levels.shape[1]
    gains = crit.u(levels) - float(crit.u(crit.c))
    if crit.kind == "RDCLU":
        gains = _rank_weights(n, crit) * gains
    total = np.sum(gains, axis=1)
    return total / n if crit.kind == "AU" else total


class _Cases:
    """The rows of equally wide cases, grouped by length and sorted once.

    values(crit) is the welfare of every row of every case, shape
    (cases, rows per case), from one _welfare pass per row length; any
    number of criteria share the grouping and the sort. Grouping rows by
    length, rather than padding them, keeps every value bit-identical to
    the one-row evaluation of criterion_value.
    """

    def __init__(self, cases):
        rows = [row for case in cases for row in case]
        self.shape = (len(cases), len(rows) // len(cases))
        by_length = {}
        for i, row in enumerate(rows):
            by_length.setdefault(len(row), []).append(i)
        self.groups = [
            (np.array(idx), np.sort(np.array([rows[i] for i in idx],
                                             dtype=float), axis=1))
            for idx in by_length.values()]

    def values(self, crit: WelfareCriterion) -> np.ndarray:
        values = np.empty(self.shape[0] * self.shape[1])
        for idx, levels in self.groups:
            values[idx] = _welfare(levels, crit)
        return values.reshape(self.shape)


def criterion_value(x: Allocation, crit: WelfareCriterion) -> float:
    """Real-valued welfare of an allocation under a criterion.

    Levels are sorted ascending before aggregation, so the value is
    exactly invariant under permutations.
    """
    return float(_welfare(np.sort([x.levels]), crit)[0])


def _value_error_bound(x: Allocation, crit: WelfareCriterion) -> float:
    """Bound on the rounding error of criterion_value(x, crit).

    Each of the n terms w_r*(u(x) - u(c)) is formed with a few roundings
    of w_r*(|u(x)| + |u(c)|), and summing them adds at most n - 1 more,
    as does averaging under AU: (n + 4)*eps covers both twice over.
    """
    levels = np.sort([x.levels])
    n = levels.shape[1]
    scale = float(np.sum(_rank_weights(n, crit) * (
        np.abs(crit.u(levels)) + abs(crit.u(crit.c)))))
    return (n + 4) * np.finfo(float).eps * (
        scale / n if crit.kind == "AU" else scale)


def _uniform_value(level: float, n, crit: WelfareCriterion):
    """criterion_value of n copies of one level, in closed form.

    n may be an integer array; used by the witness searches so that
    population sizes up to 1e5 stay cheap. n equal gains u(level) - u(c)
    sum to n times the gain, average to the gain under AU, and under
    RDCLU sum with the geometric rank weights.
    """
    n = np.asarray(n, dtype=float)
    gain = float(crit.u(level)) - float(crit.u(crit.c))
    if crit.kind == "AU":
        out = np.full_like(n, gain)
    elif crit.kind == "RDCLU":
        b = crit.rank_discount
        out = gain * b * (1.0 - b ** n) / (1.0 - b)
    else:
        out = n * gain
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


def _judged(cases, criteria, judge) -> list:
    """judge(values) for each criterion, on the shared rows of cases."""
    batch = _Cases(cases)
    return [judge(batch.values(crit)) for crit in criteria]


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
# case-by-case loop would; their draws do not depend on the criterion,
# so every criterion is judged on the same cases. Each criterion's
# values come from the shared _Cases, and its first failing case in
# draw order is its witness; only that case is turned into Allocations.
# Rows built from drawn levels are plain lists, which are cheaper to
# join than arrays and which _Cases stacks all the same. Each checker
# returns one (verdict, witness, notes) per criterion.


def _check_order(criteria, rng, samples, lo, hi, pop_cap):
    cases = [[_rand_levels(rng, pop_cap, lo, hi) for _ in range(3)]
             for _ in range(samples)]

    def judge(v):
        vx, vy, vz = v.T
        reflexive = _orders(vx, vx) == 0
        xy, yz, xz = _orders(vx, vy), _orders(vy, vz), _orders(vx, vz)
        intransitive = (xy >= 0) & (yz >= 0) & (xz < 0)
        i = _first(~reflexive | intransitive)
        if i is None:
            return "pass", None, ""
        x, y, z = (_alloc(r) for r in cases[i])
        if not reflexive[i]:
            return "fail", Witness("reflexivity", {"x": x}), ""
        return "fail", Witness("transitivity",
                               {"x": x, "y": y, "z": z,
                                "x_vs_y": Ordering(int(xy[i])),
                                "y_vs_z": Ordering(int(yz[i])),
                                "x_vs_z": Ordering(int(xz[i]))}), ""

    return _judged(cases, criteria, judge)


_CONTINUITY_DELTAS = (1e-4, 1e-6, 1e-8)


def _check_continuity(criteria, rng, samples, lo, hi, pop_cap):
    # Proxy: perturbing one level by delta moves the value by at most
    # K*delta for a finite empirical K, and the change vanishes with
    # delta. This is a bounded-modulus proxy, not topological continuity.
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

    def judge(v):
        # worst[i, j] is the running maximum quotient after delta j of
        # sample i, as a sample-by-sample loop would hold it.
        change = np.abs(v[:, 1:] - v[:, :1])
        quotients = (change / np.asarray(_CONTINUITY_DELTAS)).ravel()
        # A running max from 0 that, like max(), passes over NaN quotients.
        worst = np.fmax.accumulate(np.append(0.0, quotients))[1:].reshape(
            change.shape)
        grows = change[:, 1:] > change[:, :-1] + 1e-9
        blows_up = ~np.isfinite(worst[:, -1]) | (worst[:, -1] > 1e9)
        i = _first(grows.any(axis=1) | blows_up)
        if i is None:
            return "pass", None, _continuity_notes(worst[-1, -1])
        x, k = drawn[i]
        if grows[i].any():
            j = int(np.argmax(grows[i])) + 1
            return "fail", Witness("continuity",
                                   {"x": _alloc(x), "index": k,
                                    "delta": _CONTINUITY_DELTAS[j]}), \
                _continuity_notes(worst[i, j])
        worst_k = float(worst[i, -1])
        return "fail", Witness("continuity",
                               {"x": _alloc(x), "index": k,
                                "quotient": worst_k}), \
            _continuity_notes(worst_k)

    return _judged(cases, criteria, judge)


def _continuity_notes(k) -> str:
    return f"proxy check; empirical modulus K={float(k):.3g}"


def _check_suppes_sen(criteria, rng, samples, lo, hi, pop_cap):
    # Construct pairs where x rank-dominates y strictly, then require
    # strict preference.
    cases = []
    for _ in range(samples):
        y = _rand_levels(rng, pop_cap, lo, hi)
        bumps = rng.uniform(0.1, 1.0, len(y))
        perm = rng.permutation(len(y))
        cases.append(((np.sort(y) + bumps)[perm], y))

    def judge(v):
        i = _first(_orders(v[:, 0], v[:, 1]) != 1)
        if i is None:
            return "pass", None, ""
        x, y = cases[i]
        return "fail", Witness("dominance",
                               {"x": _alloc(x), "y": _alloc(y)}), ""

    return _judged(cases, criteria, judge)


def _existence_independence(criteria, rng, samples, lo, hi, pop_cap, best):
    probes = _A4_PROBES if best else _A5_PROBES
    drawn = [(np.array(px), np.array(py), pz) for px, py, pz in probes]
    for _ in range(samples):
        x = _rand_levels(rng, pop_cap, lo, hi)
        y = _rand_levels(rng, pop_cap, lo, hi)
        gap = rng.uniform(0.0, 2.0)
        z = max(x.max(), y.max()) + gap if best \
            else min(x.min(), y.min()) - gap
        drawn.append((x, y, float(z)))
    notes = "" if best else "appended level placed below every existing one"

    def judge(v):
        before, after = _orders(v[:, 0], v[:, 1]), _orders(v[:, 2], v[:, 3])
        i = _first(before != after)
        if i is None:
            return "pass", None, notes
        x, y, z = drawn[i]
        return "fail", Witness("independence",
                               {"x": _alloc(x), "y": _alloc(y), "z": z,
                                "before": Ordering(int(before[i])),
                                "after": Ordering(int(after[i]))}), notes

    return _judged([(x, y, [*x.tolist(), z], [*y.tolist(), z])
                    for x, y, z in drawn], criteria, judge)


def _check_same_number(criteria, rng, samples, lo, hi, pop_cap):
    drawn = [tuple(np.array(p) for p in probe) for probe in _A8_PROBES]
    for _ in range(samples):
        n = int(rng.integers(1, pop_cap + 1))
        m = int(rng.integers(1, pop_cap + 1))
        drawn.append((rng.uniform(lo, hi, n), rng.uniform(lo, hi, n),
                      rng.uniform(lo, hi, m), rng.uniform(lo, hi, m)))

    def judge(vals):
        with_u = _orders(vals[:, 0], vals[:, 1])
        with_v = _orders(vals[:, 2], vals[:, 3])
        i = _first(with_u != with_v)
        if i is None:
            return "pass", None, ""
        x, y, u, v = (_alloc(r) for r in drawn[i])
        return "fail", Witness("same-number",
                               {"x": x, "y": y, "u": u, "v": v,
                                "with_u": Ordering(int(with_u[i])),
                                "with_v": Ordering(int(with_v[i]))}), ""

    cases = []
    for drawn_case in drawn:
        x, y, u, v = (r.tolist() for r in drawn_case)
        cases.append((x + u, y + u, x + v, y + v))
    return _judged(cases, criteria, judge)


def _check_negative_expansion(criteria, rng, samples, lo, hi, pop_cap):
    # Appending a level below zero must never make a population strictly
    # better.
    drawn = [(np.array(px), pz) for px, pz in _NEG_EXPANSION_PROBES]
    for _ in range(samples):
        x = _rand_levels(rng, pop_cap, lo, hi)
        drawn.append((x, rng.uniform(min(lo, -1e-3), -1e-3)))

    def judge(v):
        i = _first(_orders(v[:, 0], v[:, 1]) == 1)
        if i is None:
            return "pass", None, ""
        x, z = drawn[i]
        return "fail", Witness("negative-expansion",
                               {"x": _alloc(x), "z": z}), ""

    return _judged([([*x.tolist(), z], x) for x, z in drawn], criteria,
                   judge)


# Which cases A6 and A7 draw depends on the criterion's earlier
# answers, so each criterion gets its own generator. Each returns
# (verdict, witness, notes) for one criterion.


def _check_critical_level(crit, rng, samples, lo, hi, pop_cap):
    # Existential: some c >= 0 such that appending a person at c to any
    # sampled allocation whose levels are all <= c leaves the order
    # indifferent. Each candidate level draws all of its samples and
    # judges them in one batch. A candidate that fails stops, case by
    # case, at its first failing sample, so the generator is rewound and
    # only the samples up to that one are drawn again: the next candidate
    # then sees exactly the draws a case-by-case search would give it.
    candidates = []
    if crit.kind in ("CLU", "RDCLU"):
        candidates.append(crit.c)
    candidates += [0.0, 1.0, 0.5 * (lo + hi), hi]
    seen = set()
    for c in candidates:
        if c < 0.0 or c in seen or c < lo:
            continue
        seen.add(c)
        top = min(c, hi)
        state = rng.bit_generator.state
        xs = [_rand_levels(rng, pop_cap, lo, top) for _ in range(samples)]
        v = _Cases([([*x.tolist(), c], x) for x in xs]).values(crit)
        i = _first(_orders(v[:, 0], v[:, 1]) != 0)
        if i is None:
            return "pass", Witness("critical-level", {"c": c}), \
                f"constructed critical level c={label_number(c)}"
        rng.bit_generator.state = state
        for _ in range(i + 1):
            _rand_levels(rng, pop_cap, lo, top)
    return "not-found-within-budget", None, ""


def _check_egalitarian_equivalence(crit, rng, samples, lo, hi, pop_cap):
    # Existential: for sampled strict pairs x > y, search a level z and a
    # population size n <= pop_cap with y < (z)_n < x, preferring the
    # largest n the budget allows.
    notes = f"existential search with population cap {pop_cap}"
    pairs_budget = min(samples, 50)
    found_all = True
    example = None
    for _ in range(pairs_budget):
        x = y = None
        for _ in range(200):
            cx = _alloc(_rand_levels(rng, pop_cap, lo, hi))
            cy = _alloc(_rand_levels(rng, pop_cap, lo, hi))
            vx, vy = criterion_value(cx, crit), criterion_value(cy, crit)
            if _orders(vx, vy) == 1:
                x, y = cx, cy
                break
        if x is None:
            continue
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
            vz = criterion_value(Allocation.uniform(z, n), crit)
            if _orders(vz, vy) == 1 and _orders(vz, vx) == -1:
                hit = (z, n)
                break
        if hit is None:
            found_all = False
            break
        example = Witness("egalitarian-equivalent",
                          {"x": x, "y": y, "z": hit[0], "n": hit[1]})
    if found_all:
        return "pass", example, notes
    return "not-found-within-budget", None, notes


_SHARED_DRAW_CHECKERS = {
    "A1": _check_order,
    "A2": _check_continuity,
    "A3": _check_suppes_sen,
    "A4": partial(_existence_independence, best=True),
    "A5": partial(_existence_independence, best=False),
    "A8": _check_same_number,
    "negative-expansion": _check_negative_expansion,
}
_PER_CRITERION_CHECKERS = {
    "A6": _check_critical_level,
    "A7": _check_egalitarian_equivalence,
}


# The largest population cap the checks accept: population sizes are
# drawn with rng.integers(1, pop_cap + 1), whose largest value, pop_cap,
# must fit in an int64.
POP_CAP_MAX = int(np.iinfo(np.int64).max)


def level_bound(pop_cap: int) -> float:
    """Largest |level| the axiom checks accept at a population cap.

    A7 brackets its egalitarian level in [lo - 2*span, hi + 2*span],
    with span = hi - lo, so at most 5 times the largest |level|, and
    values up to pop_cap copies of it; within the bound that value, and
    every other sum the checks form, stays finite. No level is within
    the bound of a cap beyond the float range.
    """
    if pop_cap >= sys.float_info.max:
        return 0.0
    return sys.float_info.max / 5 / pop_cap


def check_axioms(criteria, axiom: str, samples: int = 1000, seed: int = 0,
                 pop_cap: int = 8, level_range=(-10.0, 10.0)) -> list:
    """Randomized check of one axiom A1-A8, or of negative expansion,
    against several criteria.

    Returns one AxiomReport per criterion, in order, each equal to what
    check_axiom returns for that criterion alone. The search is seeded
    and fully deterministic; small hand-checkable probe instances are
    tried before random sampling so that textbook failures come back
    with readable witnesses. A1-A5, A8 and negative expansion draw their
    cases once, with the generator seeded by seed, and judge every
    criterion on them: the rows are grouped by length and sorted once,
    each criterion's values come from one batch per population size, and
    each criterion reports its own first failing case in draw order, the
    case a case-by-case loop would stop at. These reports are the only
    sampled verdicts: property_matrix reads its sampled cells from them.
    A6 and A7 are existential constructions whose draws depend on the
    criterion; each criterion is searched with its own generator seeded
    by seed, and may report "not-found-within-budget", which is weaker
    than "fail". A6 judges all samples of a candidate critical level in
    one batch, then rewinds the generator to just past the first failing
    sample, so each candidate sees the draws a case-by-case search would
    give it. A7 searches case by case.
    """
    if axiom not in AXIOM_TITLES:
        raise ValueError(f"unknown axiom id {axiom!r}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if pop_cap < 2:
        raise ValueError("pop_cap must be at least 2")
    if pop_cap > POP_CAP_MAX:
        raise ValueError(f"pop_cap must be at most {POP_CAP_MAX}")
    lo, hi = float(level_range[0]), float(level_range[1])
    if not lo < hi:
        raise ValueError("level range must be nondegenerate")
    bound = level_bound(pop_cap)
    if max(-lo, hi) > bound:
        raise ValueError(f"level range {(lo, hi)!r} exceeds the level bound "
                         f"max_float/(5*pop_cap) = {bound!r} in magnitude")
    criteria = tuple(criteria)
    if axiom in _PER_CRITERION_CHECKERS:
        check = _PER_CRITERION_CHECKERS[axiom]
        results = [check(crit, np.random.default_rng(seed), samples, lo, hi,
                         pop_cap) for crit in criteria]
    else:
        results = _SHARED_DRAW_CHECKERS[axiom](
            criteria, np.random.default_rng(seed), samples, lo, hi, pop_cap)
    return [AxiomReport(axiom=axiom, criterion=crit.label, samples=samples,
                        verdict=verdict, witness=witness, seed=seed,
                        notes=notes)
            for crit, (verdict, witness, notes) in zip(criteria, results)]


def check_axiom(crit: WelfareCriterion, axiom: str, samples: int = 1000,
                seed: int = 0, pop_cap: int = 8,
                level_range=(-10.0, 10.0)) -> AxiomReport:
    """Randomized check of one axiom A1-A8, or of negative expansion,
    against one criterion.

    The one-criterion case of check_axioms, which describes the search.
    """
    (report,) = check_axioms((crit,), axiom, samples, seed, pop_cap,
                             level_range)
    return report


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
    with the closed-form uniform value, scanned upward in doubling
    windows [1], [2, 3], [4, 7], ... up to the first window with a hit,
    and the hit is confirmed with a full criterion evaluation; returns
    None when no size works.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be strictly positive")
    if min(base.levels) <= epsilon:
        raise ValueError("every base level must exceed epsilon")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    vb = criterion_value(base, crit)
    first = 1
    while first <= n_max:
        ns = np.arange(first, min(2 * first, n_max + 1))
        strict = _orders(_uniform_value(epsilon, ns, crit), vb) == 1
        if strict.any():
            break
        first *= 2
    else:
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
    ns = np.arange(1, n_max + 1)
    negatives = [(neg, criterion_value(neg, crit))
                 for neg in map(Allocation, _NEGATIVE_ALLOCS)]
    for vi, v in enumerate(_POSITIVE_LEVELS):
        vals = _uniform_value(v, ns, crit)
        for nj, (neg, vneg) in enumerate(negatives):
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


# The matrix's properties in column order, and the published
# classification (Blackorby, Bossert & Donaldson 2005) of each criterion
# kind, one mark per property: "yes" a credited property, "" a blank
# cell, "-" a cell the publication lacks. Its one existence-independence
# column is shown beside both A4 and A5; it has no A8 column and no TU
# row, and a kind without a row prints "-" throughout.
_PROPERTIES = ("negative-expansion", "repugnance-avoidance", "A4", "A5",
               "A8", "utility-independence", "priority-lives-worth-living")
_PUBLISHED = {
    "CU": ("yes", "yes", "yes", "yes", "-", "yes", ""),
    "CLU": ("yes", "yes", "yes", "yes", "-", "yes", ""),
    "AU": ("", "yes", "", "", "-", "", "yes"),
    "RDCLU": ("yes", "yes", "", "", "-", "", "yes"),
}


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

    def to_text(self) -> str:
        lines = [f"{'criterion':22} {'property':28} {'computed':26} "
                 f"{'published':9} witness"]
        for c in self.cells:
            wit = c.witness.describe() if c.witness else ""
            lines.append(f"{c.criterion:22} {c.prop:28} {c.verdict:26} "
                         f"{c.reference:9} {wit}")
        return "\n".join(lines)


def property_matrix(criteria, reports, repugnant) -> PropertyMatrix:
    """Assemble the criteria-by-properties verdict matrix.

    reports[i] holds check_axioms' AxiomReports for criteria[i], A4, A5,
    A8 and negative expansion among them, and repugnant[i] is the Witness
    (or None) of its repugnant-conclusion search. Both are matched to the
    criteria by position, since distinct criteria may print alike. Every
    sampled cell takes its report's verdict and witness, and a repugnant
    witness fails repugnance avoidance: the matrix draws no case and
    judges no property itself. Utility independence and priority for
    lives worth living are reported but not machine-checked. Each cell's
    published mark is read from the row of _PUBLISHED for the criterion's
    kind.
    """
    cells = []
    for crit, suite, wit in zip(criteria, reports, repugnant, strict=True):
        found = {rep.axiom: (rep.verdict, rep.witness) for rep in suite}
        found["repugnance-avoidance"] = ("pass" if wit is None else "fail",
                                         wit)
        for prop in ("utility-independence", "priority-lives-worth-living"):
            found[prop] = ("not-machine-checked", None)
        marks = _PUBLISHED.get(crit.kind, ("-",) * len(_PROPERTIES))
        for prop, mark in zip(_PROPERTIES, marks, strict=True):
            cells.append(MatrixCell(crit.label, prop, *found[prop], mark))
    return PropertyMatrix(tuple(cells))
