"""Welfare-criteria tests: values, orderings, axiom checkers, witnesses.

The numeric examples are hand-evaluated from the criterion definitions
(sums, averages, and rank-weighted sums of transformed levels); the
randomized checkers are exercised with fixed seeds so every verdict and
witness is reproducible.
"""

import warnings

import numpy as np
import pytest

from epiethics.ethics import (
    AXIOM_IDS,
    Allocation,
    Ordering,
    UtilityTransform,
    WelfareCriterion,
    check_axiom,
    check_axioms,
    compare,
    criterion_value,
    default_criteria,
    level_bound,
    property_matrix,
    replay_witness,
    repugnant_witness,
    very_sadistic_witness,
)
from epiethics.ethics import _Cases, _uniform_value
from test_axiom_batch_reference import Staircase, Undefined, Wobbly

CU = WelfareCriterion("CU")
TU = WelfareCriterion("TU")
CLU1 = WelfareCriterion("CLU", c=1.0)
AU = WelfareCriterion("AU")
RD = WelfareCriterion("RDCLU", c=1.0, rank_discount=0.9)
RD_HALF = WelfareCriterion("RDCLU", c=0.0, rank_discount=0.5)
ALL = (CU, TU, CLU1, AU, RD)


# ---------------------------------------------------------------------------
# criterion values
# ---------------------------------------------------------------------------

def test_value_examples():
    assert criterion_value(Allocation.of(3, 3, 3), AU) == 3.0
    assert criterion_value(Allocation.of(1, 2, 3), TU) == 6.0
    assert criterion_value(Allocation.of(1, 2, 3), CU) == 6.0
    # Rank-weighted: sorted (2, 4) gives 0.5*2 + 0.25*4.
    assert criterion_value(Allocation.of(4, 2), RD_HALF) == 2.0
    # Critical-level subtraction: (2, 3) at c=1 gives (2-1) + (3-1).
    assert criterion_value(Allocation.of(2, 3), CLU1) == 3.0


def test_value_is_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    for _ in range(100):
        levels = rng.uniform(-10, 10, rng.integers(1, 9))
        shuffled = rng.permutation(levels)
        for crit in ALL:
            assert (criterion_value(Allocation(tuple(levels)), crit)
                    == criterion_value(Allocation(tuple(shuffled)), crit))


def test_tu_is_clu_with_zero_critical_level():
    for u in (UtilityTransform(), UtilityTransform("power", eta=0.7)):
        tu = WelfareCriterion("TU", u=u)
        clu0 = WelfareCriterion("CLU", c=0.0, u=u)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = Allocation(tuple(rng.uniform(-10, 10, rng.integers(1, 9))))
            assert criterion_value(x, tu) == criterion_value(x, clu0)


def test_allocation_validation():
    with pytest.raises(ValueError):
        Allocation(())
    with pytest.raises(ValueError):
        Allocation((1.0, float("nan")))
    with pytest.raises(ValueError):
        Allocation((float("inf"),))


def test_criterion_validation():
    with pytest.raises(ValueError):
        WelfareCriterion("XU")
    with pytest.raises(ValueError):
        WelfareCriterion("RDCLU", c=1.0, rank_discount=1.0)
    with pytest.raises(ValueError):
        WelfareCriterion("RDCLU", c=1.0, rank_discount=0.0)
    with pytest.raises(ValueError):
        WelfareCriterion("CLU", c=-0.5)
    with pytest.raises(ValueError):
        WelfareCriterion("TU", c=2.0)   # TU pins the critical level at 0


def test_distinct_criteria_get_distinct_labels():
    # Labels name every field in full, so distinct criteria (and their
    # ethics.csv and sensitivity.csv rows) cannot share one.
    near = (WelfareCriterion("CLU", c=1.0000001),
            WelfareCriterion("CLU", c=1.0000002))
    assert [c.label for c in near] == ["CLU(c=1.0000001)",
                                       "CLU(c=1.0000002)"]
    assert WelfareCriterion("RDCLU", c=1234567.0,
                            rank_discount=0.123456789).label \
        == "RDCLU(c=1234567,rd=0.123456789)"
    # The shipped labels are unchanged.
    assert [c.label for c in default_criteria()] == [
        "CU", "TU", "CLU(c=1)", "AU", "RDCLU(c=1,rd=0.9)"]


def test_utility_transforms():
    power = UtilityTransform("power", eta=0.5)
    assert power(4.0) == 2.0
    assert power(-4.0) == -2.0          # odd extension keeps it increasing
    with pytest.raises(ValueError):
        UtilityTransform("power", eta=1.5)


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.7])
def test_every_value_path_takes_the_same_power(eta):
    # A level transformed alone, in a row, in a batch or in the closed
    # form gets the same bits: numpy's array power may round differently
    # from the C library's scalar pow, so each path must use the same one.
    crit = WelfareCriterion("CU", u=UtilityTransform("power", eta=eta))
    levels = np.random.default_rng(0).uniform(-10.0, 10.0, 2000)
    expected = [float(v).hex() for v in crit.u(levels)]

    def bits(values):
        return [float(v).hex() for v in values]

    assert bits(crit.u(float(v)) for v in levels) == expected
    assert bits(_uniform_value(float(v), 1, crit) for v in levels) \
        == expected
    assert bits(_uniform_value(levels, 1, crit)) == expected
    assert bits(_Cases([[[v]] for v in levels]).values(crit)[:, 0]) \
        == expected
    assert bits(criterion_value(Allocation((v,)), crit)
                for v in levels) == expected


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def test_compare_examples():
    x, y = Allocation.of(1, 2), Allocation.of(2, 1)
    for crit in ALL:
        assert compare(x, y, crit) is Ordering.Indifferent
    crowd = Allocation.uniform(0.1, 1001)
    assert compare(crowd, Allocation.of(100.0), TU) is Ordering.StrictlyBetter
    assert compare(Allocation.of(2, 2), Allocation.of(2, 2, 1),
                   CLU1) is Ordering.Indifferent


def test_compare_matches_value_sign():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x = Allocation(tuple(rng.uniform(-10, 10, rng.integers(1, 9))))
        y = Allocation(tuple(rng.uniform(-10, 10, rng.integers(1, 9))))
        for crit in ALL:
            vx, vy = criterion_value(x, crit), criterion_value(y, crit)
            got = compare(x, y, crit)
            if got is Ordering.StrictlyBetter:
                assert vx > vy
            elif got is Ordering.StrictlyWorse:
                assert vx < vy
            else:
                assert abs(vx - vy) <= 1e-12 * max(1.0, abs(vx), abs(vy))


def test_critical_level_indifference():
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = Allocation(tuple(rng.uniform(-10, 10, rng.integers(1, 8))))
        # CLU: appending at the critical level never moves the value.
        assert abs(criterion_value(x.append(CLU1.c), CLU1)
                   - criterion_value(x, CLU1)) <= 1e-12
        # RDCLU: same, provided the newcomer is no worse off than anyone.
        c = max(max(x.levels), 0.0) + rng.uniform(0.0, 3.0)
        rd = WelfareCriterion("RDCLU", c=c, rank_discount=0.9)
        assert abs(criterion_value(x.append(c), rd)
                   - criterion_value(x, rd)) <= 1e-12


def test_rank_discount_bounds_uniform_value():
    beta, c = RD.rank_discount, RD.c
    v = 2.0
    ns = np.arange(1, 10_001)
    vals = _uniform_value(v, ns, RD)
    # Strictly increasing until beta**n is lost to rounding, weakly after.
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(np.diff(vals[:300]) > 0.0)
    bound = beta / (1.0 - beta) * (v - c)
    assert np.all(vals <= bound)
    # The closed form must agree with direct evaluation.
    for n in (1, 7, 100, 1000):
        direct = criterion_value(Allocation.uniform(v, n), RD)
        assert vals[n - 1] == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def test_order_axiom_passes_for_value_representations():
    for crit in ALL:
        rep = check_axiom(crit, "A1", samples=300, seed=1)
        assert rep.verdict == "pass"


def test_order_axiom_inherits_the_tie_tolerance():
    # CU values of levels within 1e-12 of zero differ by about the 1e-12
    # tie tolerance, and indifference within it does not chain: x ~ y
    # and y ~ z while z is strictly better than x.
    rep = check_axiom(CU, "A1", level_range=(-1e-12, 1e-12))
    assert rep.verdict == "fail"
    assert rep.witness.kind == "transitivity"
    assert replay_witness(CU, rep)


def test_continuity_proxy_reports_modulus():
    for crit in ALL:
        rep = check_axiom(crit, "A2", samples=200, seed=2)
        assert rep.verdict == "pass"
        assert "K=" in rep.notes


def test_dominance_axiom_passes_for_all_criteria():
    for crit in ALL:
        rep = check_axiom(crit, "A3", samples=1000, seed=3)
        assert rep.verdict == "pass"


def test_best_off_independence_fails_for_averaging():
    rep = check_axiom(AU, "A4", samples=200, seed=4)
    assert rep.verdict == "fail"
    w = rep.witness.payload
    assert w["x"].levels == (1.0,)
    assert w["y"].levels == (0.6, 1.5)
    assert w["z"] == 3.0
    assert replay_witness(AU, rep)
    # Rank discounting is also sensitive to who the best off are.
    assert check_axiom(RD, "A4", samples=200, seed=4).verdict == "fail"
    for crit in (CU, TU, CLU1):
        assert check_axiom(crit, "A4", samples=200, seed=4).verdict == "pass"


def test_worst_off_independence_verdicts():
    rep = check_axiom(AU, "A5", samples=200, seed=5)
    assert rep.verdict == "fail"
    assert replay_witness(AU, rep)
    for crit in (CU, TU, CLU1, RD):
        assert check_axiom(crit, "A5", samples=200, seed=5).verdict == "pass"


def test_critical_level_axiom_verdicts():
    for crit, expected_c in ((CLU1, 1.0), (RD, 1.0), (CU, 0.0), (TU, 0.0)):
        rep = check_axiom(crit, "A6", samples=300, seed=6)
        assert rep.verdict == "pass"
        assert rep.witness.payload["c"] == expected_c
    assert (check_axiom(AU, "A6", samples=300, seed=6).verdict
            == "not-found-within-budget")


def test_critical_level_notes_print_the_level_exactly():
    # "g" format would round the level to six digits and print c=1.
    crit = WelfareCriterion("CLU", c=1.0000001)
    rep = check_axiom(crit, "A6", samples=50, seed=6)
    assert rep.verdict == "pass"
    assert rep.notes == "constructed critical level c=1.0000001"
    assert rep.criterion == "CLU(c=1.0000001)"


@pytest.mark.parametrize("pop_cap", [2, 8, 32])
def test_critical_level_is_not_judged_on_a_one_point_window(pop_cap):
    # On levels 0..10 the candidate c = 0 is level_min, so [level_min, c]
    # holds only 0, where appending a 0 moves no criterion, AU's mean
    # included. The candidate draws from [-10, 0] instead: AU has no
    # critical level, and CU and TU keep theirs at 0.
    reports = check_axioms((CU, TU, AU), "A6", samples=1000, seed=0,
                           pop_cap=pop_cap, level_range=(0.0, 10.0))
    assert [(r.verdict, r.witness and r.witness.payload["c"])
            for r in reports] \
        == [("pass", 0.0), ("pass", 0.0), ("not-found-within-budget", None)]


# The level ranges and population caps of the verdict-stability study:
# ranges that put 0 inside the window, and (0, 10), which puts it at the
# bottom edge.
STABILITY_RANGES = ((-0.1, 0.1), (-10.0, 10.0), (-1000.0, 1000.0),
                    (0.0, 10.0))
STABILITY_CAPS = (2, 8, 32)


def test_verdicts_do_not_move_with_the_level_range_or_cap():
    # Every (criterion, property) cell of the default criteria keeps one
    # verdict across the ranges and caps above, at the run defaults of
    # 1,000 samples and seed 0: no verdict is an artifact of the window.
    verdicts = {}
    for prop in AXIOM_IDS + ("negative-expansion",):
        for level_range in STABILITY_RANGES:
            for pop_cap in STABILITY_CAPS:
                for rep in check_axioms(default_criteria(), prop,
                                        samples=1000, seed=0,
                                        pop_cap=pop_cap,
                                        level_range=level_range):
                    verdicts.setdefault((rep.criterion, prop),
                                        set()).add(rep.verdict)
    assert len(verdicts) == 45
    assert {cell: v for cell, v in verdicts.items() if len(v) > 1} == {}


def test_egalitarian_equivalence_constructions():
    for crit in ALL:
        rep = check_axiom(crit, "A7", samples=100, seed=7)
        assert rep.verdict == "pass"
        w = rep.witness.payload
        zn = Allocation.uniform(w["z"], w["n"])
        assert compare(zn, w["x"], crit) is Ordering.StrictlyWorse
        assert compare(zn, w["y"], crit) is Ordering.StrictlyBetter


def test_same_number_consistency_verdicts():
    rep = check_axiom(RD_HALF, "A8", samples=200, seed=8)
    assert rep.verdict == "fail"
    w = rep.witness.payload
    assert w["x"].levels == (0.0, 20.0) and w["y"].levels == (4.0, 5.0)
    assert w["u"].levels == (4.5,) and w["v"].levels == (30.0,)
    assert replay_witness(RD_HALF, rep)
    assert check_axiom(RD, "A8", samples=400, seed=8).verdict == "fail"
    for crit in (CU, TU, CLU1, AU):
        assert check_axiom(crit, "A8", samples=200, seed=8).verdict == "pass"


class Tens(UtilityTransform):
    """10*floor(v/10): every welfare value is a multiple of 10, so a
    strict pair 10 apart has no uniform population strictly between."""

    def __call__(self, v):
        return 10.0 * np.floor(np.asarray(v, dtype=float) / 10.0)


# No proper criterion fails A1-A3 or A7, so improper transforms stand in
# there.
KNOWN_VIOLATORS = [
    (WelfareCriterion("CU", u=Undefined()), "A1", "fail"),
    (WelfareCriterion("CU", u=Staircase()), "A2", "fail"),
    (WelfareCriterion("CU", u=Wobbly()), "A3", "fail"),
    (AU, "A4", "fail"),
    (AU, "A5", "fail"),
    (AU, "A6", "not-found-within-budget"),
    (WelfareCriterion("CU", u=Tens()), "A7", "not-found-within-budget"),
    (RD, "A8", "fail"),
    (AU, "negative-expansion", "fail"),
]


@pytest.mark.parametrize("crit, prop, verdict", KNOWN_VIOLATORS,
                         ids=[prop for _, prop, _ in KNOWN_VIOLATORS])
def test_sampler_catches_a_known_violator_at_the_defaults(crit, prop,
                                                          verdict):
    # The sampler's power at the run defaults: a "pass" elsewhere means
    # more when these draws catch a criterion known to violate the
    # property.
    rep = check_axiom(crit, prop, samples=1000, seed=0, pop_cap=8,
                      level_range=(-10.0, 10.0))
    assert rep.verdict == verdict
    if verdict == "fail":
        assert replay_witness(crit, rep)


def test_checker_determinism_and_replay():
    for crit in ALL:
        for axiom in AXIOM_IDS:
            a = check_axiom(crit, axiom, samples=150, seed=17)
            b = check_axiom(crit, axiom, samples=150, seed=17)
            assert a == b
            if a.verdict == "fail":
                assert replay_witness(crit, a)


def test_checker_input_validation():
    with pytest.raises(ValueError, match="axiom"):
        check_axiom(CU, "A9")
    with pytest.raises(ValueError, match="samples"):
        check_axiom(CU, "A1", samples=0)
    with pytest.raises(ValueError, match="pop_cap"):
        check_axiom(CU, "A1", pop_cap=1)
    with pytest.raises(ValueError, match="pop_cap"):
        check_axiom(CU, "A1", pop_cap=2 ** 63)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        check_axioms(default_criteria(), "A1", seed=-1)
    for level_range in ((1.0, 1.0), (2.0, -2.0)):
        with pytest.raises(ValueError,
                           match="level_min must be strictly below level_max"):
            check_axioms(ALL, "A1", level_range=level_range)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        repugnant_witness(TU, Allocation.of(100.0), 0.1, 0)
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        very_sadistic_witness(CLU1, n_max=0)
    with pytest.raises(ValueError,
                       match="population size must be at least 1"):
        Allocation.uniform(1.0, 0)
    with pytest.raises(ValueError, match="unknown transform kind 'log'"):
        UtilityTransform("log")


def test_level_range_is_bounded_by_the_a7_bracket():
    # Within the bound every check runs without an overflow, even at the
    # bound itself; beyond it the range is refused before any draw.
    bound = level_bound(8)
    assert bound == np.finfo(float).max / 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for axiom in AXIOM_IDS:
            check_axioms(ALL, axiom, samples=40, pop_cap=8,
                         level_range=(-bound, bound))
    for wide in ((-1e307, 1e307), (-1e308, 1e308), (-1.0, 2 * bound)):
        with pytest.raises(ValueError, match="exceeds the level bound"):
            check_axiom(CU, "A7", pop_cap=8, level_range=wide)
    assert level_bound(16) == bound / 2
    assert level_bound(10 ** 400) == 0.0


def test_report_line_is_readable():
    rep = check_axiom(AU, "A4", samples=50, seed=4)
    line = rep.line()
    assert "A4" in line and "AU" in line and "fail" in line


# ---------------------------------------------------------------------------
# conclusion witnesses
# ---------------------------------------------------------------------------

def test_repugnant_witness_for_total_criterion():
    wit = repugnant_witness(TU, Allocation.of(100.0), 0.1, 10_000)
    assert wit.payload["n"] == 1001
    clones = wit.payload["clones"]
    assert compare(clones, Allocation.of(100.0), TU) is Ordering.StrictlyBetter
    # 1000 copies do not yet beat the base: the witness is minimal.
    assert compare(Allocation.uniform(0.1, 1000), Allocation.of(100.0),
                   TU) is not Ordering.StrictlyBetter


def test_repugnant_witness_blocked_by_critical_level():
    clu2 = WelfareCriterion("CLU", c=2.0)
    assert repugnant_witness(clu2, Allocation.of(100.0), 0.1, 100_000) is None


def test_repugnant_witness_blocked_by_rank_discounting():
    assert repugnant_witness(RD, Allocation.of(100.0), 0.5, 100_000) is None
    assert repugnant_witness(RD, Allocation.of(100.0), 0.1, 100_000) is None


def test_repugnant_witness_validation():
    with pytest.raises(ValueError, match="epsilon"):
        repugnant_witness(TU, Allocation.of(100.0), -0.1, 100)
    with pytest.raises(ValueError, match="base"):
        repugnant_witness(TU, Allocation.of(0.05), 0.1, 100)


def test_very_sadistic_witness_for_positive_critical_level():
    wit = very_sadistic_witness(CLU1)
    assert wit.payload["positive"].levels == (0.5,) * 5
    assert wit.payload["negative"].levels == (-1.0,)
    assert wit.payload["positive_value"] == -2.5
    assert wit.payload["negative_value"] == -2.0
    assert compare(wit.payload["positive"], wit.payload["negative"],
                   CLU1) is Ordering.StrictlyWorse


def test_very_sadistic_witness_absent_for_sign_respecting_criteria():
    assert very_sadistic_witness(TU) is None
    assert very_sadistic_witness(CU) is None
    assert very_sadistic_witness(AU) is None


# ---------------------------------------------------------------------------
# property matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def matrix():
    # The matrix takes check_axioms' A4, A5, A8 and negative-expansion
    # reports and the repugnant-conclusion searches, as the ethics
    # command passes them.
    criteria = default_criteria()
    suite = list(zip(*(check_axioms(criteria, axiom, samples=300, seed=0)
                       for axiom in ("A4", "A5", "A8",
                                     "negative-expansion"))))
    repugnant = [repugnant_witness(crit, Allocation.of(100.0), 0.1, 100_000)
                 for crit in criteria]
    return property_matrix(criteria, suite, repugnant)


def cell(matrix, criterion_label, prop):
    for c in matrix.cells:
        if c.criterion == criterion_label and c.prop == prop:
            return c
    raise KeyError((criterion_label, prop))


def test_matrix_negative_expansion(matrix):
    got = cell(matrix, "AU", "negative-expansion")
    assert got.verdict == "fail"
    assert got.witness.payload["x"].levels == (-10.0, -10.0)
    assert got.witness.payload["z"] == -1.0
    for label in ("CU", "TU", "CLU(c=1)", "RDCLU(c=1,rd=0.9)"):
        assert cell(matrix, label, "negative-expansion").verdict == "pass"


def test_matrix_repugnance_avoidance(matrix):
    assert cell(matrix, "TU", "repugnance-avoidance").verdict == "fail"
    assert cell(matrix, "CLU(c=1)", "repugnance-avoidance").verdict == "pass"
    assert cell(matrix, "RDCLU(c=1,rd=0.9)",
                "repugnance-avoidance").verdict == "pass"
    assert cell(matrix, "AU", "repugnance-avoidance").verdict == "pass"


def test_matrix_shows_published_marks_without_reconciling(matrix):
    # The published table credits CU with avoiding repugnance; the
    # constructive search disagrees. Both readings are reported.
    got = cell(matrix, "CU", "repugnance-avoidance")
    assert got.verdict == "fail" and got.reference == "yes"
    # No published row exists for TU, rendered as "-".
    assert cell(matrix, "TU", "repugnance-avoidance").reference == "-"
    # Same-number consistency has no published column at all.
    assert cell(matrix, "CU", "A8").reference == "-"


# The published classification as the matrix prints it, one mark per
# property in column order: "yes" credited, "" blank, "-" not in the
# publication (no TU row, no A8 column).
MATRIX_PROPERTIES = ("negative-expansion", "repugnance-avoidance", "A4",
                     "A5", "A8", "utility-independence",
                     "priority-lives-worth-living")
PUBLISHED_MARKS = {
    "CU": ("yes", "yes", "yes", "yes", "-", "yes", ""),
    "TU": ("-", "-", "-", "-", "-", "-", "-"),
    "CLU(c=1)": ("yes", "yes", "yes", "yes", "-", "yes", ""),
    "AU": ("", "yes", "", "", "-", "", "yes"),
    "RDCLU(c=1,rd=0.9)": ("yes", "yes", "", "", "-", "", "yes"),
}


def _marks(matrix, label):
    return [(c.prop, c.reference) for c in matrix.cells
            if c.criterion == label]


def test_matrix_prints_the_whole_published_table(matrix):
    assert [c.criterion for c in matrix.cells[::7]] == list(PUBLISHED_MARKS)
    for label, marks in PUBLISHED_MARKS.items():
        assert _marks(matrix, label) == list(zip(MATRIX_PROPERTIES, marks))


def _suite(criteria, axioms):
    return list(zip(*(check_axioms(criteria, axiom, samples=50, seed=0)
                      for axiom in axioms)))


def test_matrix_marks_follow_the_criterion_kind():
    # A transformed CU is still CU in the published table.
    crit = WelfareCriterion("CU", u=UtilityTransform("power", 0.5))
    got = property_matrix(
        [crit], _suite([crit], ("A4", "A5", "A8", "negative-expansion")),
        [None])
    assert _marks(got, crit.label) == list(zip(MATRIX_PROPERTIES,
                                               PUBLISHED_MARKS["CU"]))


def test_matrix_needs_the_suite_a8_report():
    with pytest.raises(KeyError):
        property_matrix(
            [CU], _suite([CU], ("A4", "A5", "negative-expansion")), [None])


def test_matrix_not_machine_checked_columns(matrix):
    for label in ("CU", "AU"):
        for prop in ("utility-independence", "priority-lives-worth-living"):
            got = cell(matrix, label, prop)
            assert got.verdict == "not-machine-checked"
            assert got.witness is None


def test_matrix_text_rendering(matrix):
    text = matrix.to_text()
    assert "criterion" in text.splitlines()[0]
    assert "published" in text.splitlines()[0]
    assert len(text.splitlines()) == 1 + len(matrix.cells)
