"""The batched axiom checkers against case-by-case loops, witness for witness.

The reference below checks one case at a time, in the order the cases
are drawn, with a one-dimensional criterion value and a scalar tie rule,
and stops at the first failure. The package's checkers draw every case
first and evaluate them in one batch per population size; they must
return the same verdict, notes and witness text, so the ethics
artifacts stay byte-identical across the two forms.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from epiethics.cli import main
from epiethics.ethics import (AXIOM_IDS, Allocation, Ordering,
                              UtilityTransform, WelfareCriterion, Witness,
                              check_axiom, check_axioms, default_criteria)

ROOT = Path(__file__).resolve().parents[1]
LO, HI, POP_CAP = -10.0, 10.0, 8
SEEDS = range(20)
SAMPLES = 200
CRITERIA = default_criteria() + (
    WelfareCriterion("RDCLU", rank_discount=0.5),
    WelfareCriterion("CU", u=UtilityTransform("power", eta=0.5)),
)


# ---------------------------------------------------------------------------
# reference: one case at a time
# ---------------------------------------------------------------------------

def ref_value(x, crit):
    levels = np.sort(np.asarray(x.levels, dtype=float))
    u = np.atleast_1d(crit.u(levels))
    if crit.kind == "CU":
        return float(np.sum(u))
    if crit.kind in ("TU", "CLU"):
        uc = float(crit.u(crit.c if crit.kind == "CLU" else 0.0))
        return float(np.sum(u - uc))
    if crit.kind == "AU":
        return float(np.sum(u) / u.size)
    uc = float(crit.u(crit.c))
    weights = crit.rank_discount ** np.arange(1, u.size + 1, dtype=float)
    return float(np.sum(weights * (u - uc)))


def ref_compare(x, y, crit):
    vx, vy = ref_value(x, crit), ref_value(y, crit)
    if abs(vx - vy) <= 1e-12 * max(1.0, abs(vx), abs(vy)):
        return Ordering.Indifferent
    return Ordering.StrictlyBetter if vx > vy else Ordering.StrictlyWorse


def rand_alloc(rng, size=None):
    n = int(rng.integers(1, POP_CAP + 1)) if size is None else size
    return Allocation(tuple(rng.uniform(LO, HI, n)))


def ref_order(crit, rng, samples):
    better_eq = (Ordering.StrictlyBetter, Ordering.Indifferent)
    for _ in range(samples):
        x, y, z = rand_alloc(rng), rand_alloc(rng), rand_alloc(rng)
        if ref_compare(x, x, crit) is not Ordering.Indifferent:
            return "fail", Witness("reflexivity", {"x": x})
        xy = ref_compare(x, y, crit)
        yz = ref_compare(y, z, crit)
        xz = ref_compare(x, z, crit)
        if xy in better_eq and yz in better_eq and xz not in better_eq:
            return "fail", Witness("transitivity",
                                   {"x": x, "y": y, "z": z, "x_vs_y": xy,
                                    "y_vs_z": yz, "x_vs_z": xz})
    return "pass", None


def ref_continuity(crit, rng, samples):
    worst_k = 0.0
    for _ in range(samples):
        x = rand_alloc(rng)
        k = int(rng.integers(0, len(x)))
        v0 = ref_value(x, crit)
        prev_change = None
        for delta in (1e-4, 1e-6, 1e-8):
            bumped = list(x.levels)
            bumped[k] += delta
            change = abs(ref_value(Allocation(tuple(bumped)), crit) - v0)
            worst_k = max(worst_k, change / delta)
            if prev_change is not None and change > prev_change + 1e-9:
                return "fail", Witness("continuity",
                                       {"x": x, "index": k,
                                        "delta": delta}), worst_k
            prev_change = change
        if not math.isfinite(worst_k) or worst_k > 1e9:
            return "fail", Witness("continuity",
                                   {"x": x, "index": k,
                                    "quotient": worst_k}), worst_k
    return "pass", None, worst_k


def ref_suppes_sen(crit, rng, samples):
    for _ in range(samples):
        y = rand_alloc(rng)
        bumps = rng.uniform(0.1, 1.0, len(y))
        xs = np.sort(np.asarray(y.levels)) + bumps
        perm = rng.permutation(len(y))
        x = Allocation(tuple(xs[perm]))
        if ref_compare(x, y, crit) is not Ordering.StrictlyBetter:
            return "fail", Witness("dominance", {"x": x, "y": y})
    return "pass", None


def ref_independence(crit, rng, samples, best):
    probe = ((1.0,), (0.6, 1.5), 3.0) if best \
        else ((10.0,), (1.0, 1.0, 1.0), -20.0)
    cases = [(Allocation(probe[0]), Allocation(probe[1]), probe[2])]
    for _ in range(samples):
        x, y = rand_alloc(rng), rand_alloc(rng)
        gap = rng.uniform(0.0, 2.0)
        bound = max(max(x.levels), max(y.levels)) if best \
            else min(min(x.levels), min(y.levels))
        cases.append((x, y, bound + gap if best else bound - gap))
    for x, y, z in cases:
        before = ref_compare(x, y, crit)
        after = ref_compare(x.append(z), y.append(z), crit)
        if before is not after:
            return "fail", Witness("independence",
                                   {"x": x, "y": y, "z": z,
                                    "before": before, "after": after})
    return "pass", None


def ref_same_number(crit, rng, samples):
    cases = [(Allocation((0.0, 20.0)), Allocation((4.0, 5.0)),
              Allocation((4.5,)), Allocation((30.0,)))]
    for _ in range(samples):
        n = int(rng.integers(1, POP_CAP + 1))
        m = int(rng.integers(1, POP_CAP + 1))
        cases.append((rand_alloc(rng, n), rand_alloc(rng, n),
                      rand_alloc(rng, m), rand_alloc(rng, m)))
    for x, y, u, v in cases:
        with_u = ref_compare(Allocation(x.levels + u.levels),
                             Allocation(y.levels + u.levels), crit)
        with_v = ref_compare(Allocation(x.levels + v.levels),
                             Allocation(y.levels + v.levels), crit)
        if with_u is not with_v:
            return "fail", Witness("same-number",
                                   {"x": x, "y": y, "u": u, "v": v,
                                    "with_u": with_u, "with_v": with_v})
    return "pass", None


def ref_negative_expansion(crit, rng, samples):
    cases = [(Allocation((-10.0, -10.0)), -1.0)]
    for _ in range(samples):
        x = rand_alloc(rng)
        cases.append((x, rng.uniform(min(LO, -1e-3), -1e-3)))
    for x, z in cases:
        if ref_compare(x.append(z), x, crit) is Ordering.StrictlyBetter:
            return "fail", Witness("negative-expansion", {"x": x, "z": z})
    return "pass", None


def reference_check(crit, prop, seed):
    """(verdict, notes, witness text) of one check, case by case."""
    rng = np.random.default_rng(seed)
    notes = ""
    if prop == "A1":
        verdict, witness = ref_order(crit, rng, SAMPLES)
    elif prop == "A2":
        verdict, witness, k = ref_continuity(crit, rng, SAMPLES)
        notes = f"proxy check; empirical modulus K={k:.3g}"
    elif prop == "A3":
        verdict, witness = ref_suppes_sen(crit, rng, SAMPLES)
    elif prop == "A4":
        verdict, witness = ref_independence(crit, rng, SAMPLES, best=True)
    elif prop == "A5":
        verdict, witness = ref_independence(crit, rng, SAMPLES, best=False)
        notes = "appended level placed below every existing one"
    elif prop == "A8":
        verdict, witness = ref_same_number(crit, rng, SAMPLES)
    else:
        verdict, witness = ref_negative_expansion(crit, rng, SAMPLES)
    return verdict, notes, witness.describe() if witness else None


def batched_check(crit, prop, seed):
    rep = check_axiom(crit, prop, samples=SAMPLES, seed=seed,
                      pop_cap=POP_CAP, level_range=(LO, HI))
    witness = rep.witness.describe() if rep.witness else None
    return rep.verdict, rep.notes, witness


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

PROPS = ("A1", "A2", "A3", "A4", "A5", "A8", "negative-expansion")


@pytest.mark.parametrize("prop", PROPS)
def test_batched_checker_matches_case_by_case_loop(prop):
    verdicts = set()
    for crit in CRITERIA:
        for seed in SEEDS:
            got = batched_check(crit, prop, seed)
            assert got == reference_check(crit, prop, seed), \
                (crit.label, seed)
            verdicts.add(got[0])
    if prop not in ("A1", "A2", "A3"):
        # Both verdicts occur, so fail witnesses are compared too.
        assert verdicts == {"pass", "fail"}


class Undefined(UtilityTransform):
    """NaN below zero, so an allocation is not even indifferent to itself."""

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(v >= 0.0, v, np.nan)


class Staircase(UtilityTransform):
    """Steps of 10 every 1/3e8: difference quotients near 3e9 at 1e-8."""

    def __call__(self, v):
        return 10.0 * np.floor(np.asarray(v, dtype=float) * 3e8)


class Wobbly(UtilityTransform):
    """A fast oscillation: the change can grow as the bump shrinks."""

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        return v + np.sin(v * 1e9)


@pytest.mark.parametrize("u, prop, marker", [
    (Undefined(), "A1", "x="),           # reflexivity
    (Undefined(), "A2", None),           # NaN quotients are passed over
    (Staircase(), "A2", "quotient="),
    (Wobbly(), "A2", "delta="),
    (Wobbly(), "A3", "y="),              # dominance
], ids=["reflexivity", "nan-quotients", "quotient", "delta", "dominance"])
def test_batched_checker_matches_on_improper_transforms(u, prop, marker):
    # No proper criterion fails A1-A3, so these transforms stand in to
    # reach the reflexivity, continuity and dominance witnesses.
    crit = WelfareCriterion("CU", u=u)
    for seed in SEEDS:
        got = batched_check(crit, prop, seed)
        assert got == reference_check(crit, prop, seed), seed
        if marker is None:
            assert got[0] == "pass", seed
        else:
            assert got[0] == "fail" and marker in got[2], seed


# ethics.txt as the property matrix writes it from the suite's reports.
# It differs from the digest in perfbench/reference.json on one line: the
# matrix's RDCLU(c=1,rd=0.9) A8 cell now carries the suite's witness
# instead of one from the matrix's own draw.
ETHICS_TXT_SHA256 = \
    "ce3924c273e4f69fdc74c59481eeb3d861199a7495a54a94e392d32b4d834060"


def test_ethics_artifacts_keep_their_reference_digests(tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference.json")
                           .read_text())
    want = reference["workloads"]["quickstart"]["sha256"]
    out = tmp_path / "ethics"
    assert main(["--config", str(ROOT / "configs" / "benchmark.cfg"),
                 "--out", str(out), "ethics"]) == 0

    def digest(name):
        return hashlib.sha256((out / name).read_bytes()).hexdigest()

    assert digest("ethics.csv") == want["ethics/ethics.csv"]
    assert digest("ethics.txt") == ETHICS_TXT_SHA256


# ---------------------------------------------------------------------------
# several criteria on one draw against one criterion at a time
# ---------------------------------------------------------------------------

def report_key(rep):
    return (rep.axiom, rep.criterion, rep.samples, rep.seed, rep.verdict,
            rep.notes, rep.witness.describe() if rep.witness else None)


def one_at_a_time(criteria, axiom, seed):
    return [report_key(check_axiom(crit, axiom, samples=SAMPLES, seed=seed,
                                   pop_cap=POP_CAP, level_range=(LO, HI)))
            for crit in criteria]


def together(criteria, axiom, seed):
    return [report_key(rep)
            for rep in check_axioms(criteria, axiom, samples=SAMPLES,
                                    seed=seed, pop_cap=POP_CAP,
                                    level_range=(LO, HI))]


# Every property check_axioms samples: the suite's axioms and the
# property matrix's negative expansion.
SAMPLED = AXIOM_IDS + ("negative-expansion",)


@pytest.mark.parametrize("axiom", SAMPLED)
def test_shared_draw_equals_one_criterion_checks(axiom):
    for seed in range(10):
        assert together(CRITERIA, axiom, seed) \
            == one_at_a_time(CRITERIA, axiom, seed), seed


@pytest.mark.parametrize("axiom", SAMPLED)
def test_improper_criteria_leave_the_others_verdicts_alone(axiom):
    # A NaN-valued, a stepped and an oscillating criterion judged on the
    # same draw as the proper ones: every report is still the one that
    # criterion gets on its own.
    improper = tuple(WelfareCriterion("CU", u=u)
                     for u in (Undefined(), Staircase(), Wobbly()))
    mixed = improper[:1] + CRITERIA[:3] + improper[1:] + CRITERIA[3:]
    for seed in range(3):
        assert together(mixed, axiom, seed) \
            == one_at_a_time(mixed, axiom, seed), seed
