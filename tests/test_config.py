"""Configuration parsing, validation, and round-trip serialization."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epiethics.config import (
    ConfigError,
    KEY_ORDER,
    RunConfig,
    criterion_from_spec,
    criterion_spec,
    parse_config,
    serialize_config,
)
from epiethics.ethics import UtilityTransform, WelfareCriterion
from epiethics.epidemic import PlannerParams, stability_bound
from epiethics.planner import GridSpec
from epiethics.sensitivity import VictimProfile

BENCHMARK_CFG = Path(__file__).resolve().parents[1] / "configs/benchmark.cfg"


# ---------------------------------------------------------------------------
# defaults and the shipped file
# ---------------------------------------------------------------------------

def test_empty_text_yields_the_benchmark_defaults():
    cfg = parse_config("")
    assert cfg.params.beta_contact == 36.0
    assert cfg.params.gamma == 18.0
    assert cfg.params.cost_per_death == 20.0
    assert cfg.params.tau == 1
    assert cfg.grid.n_S == cfg.grid.n_I == 300
    assert cfg.S0 == 0.98 and cfg.I0 == 0.02
    assert cfg.dt == 1.0 / 365.0
    assert cfg.tol is None
    assert len(cfg.criteria) == 5
    assert cfg.ladder == (0.0, 10.0, 20.0, 40.0)


def test_shipped_benchmark_file_equals_defaults():
    cfg = parse_config(BENCHMARK_CFG.read_text())
    assert cfg == parse_config("")


def test_derived_fatality_defaults_follow_gamma():
    cfg = parse_config("gamma=10\nbeta_contact=20\n")
    assert cfg.params.phi0 == 0.1      # 1% of the exit rate
    assert cfg.params.kappa == 0.5     # anchored at 3% when I = 0.4
    explicit = parse_config("gamma=10\nbeta_contact=20\nphi0=0.2\n")
    assert explicit.params.phi0 == 0.2
    auto = parse_config("gamma=10\nbeta_contact=20\nphi0=auto\nkappa=auto\n")
    assert auto.params.phi0 == 0.1 and auto.params.kappa == 0.5


def test_initial_state_fills_recovered_remainder():
    cfg = parse_config("S0=0.9\nI0=0.04\n")
    state = cfg.state0()
    assert state.S == 0.9 and state.I == 0.04
    assert state.R == pytest.approx(0.06, abs=1e-15)


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("# full-line comment\n\ntheta=0.4  # trailing\n")
    assert cfg.params.theta == 0.4


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

def test_serialize_emits_every_key_in_canonical_order():
    text = serialize_config(parse_config(""))
    keys = [line.split("=", 1)[0] for line in text.strip().splitlines()]
    assert keys == list(KEY_ORDER)


def test_round_trip_is_identity():
    custom = "\n".join([
        "beta_contact=30", "gamma=15", "theta=0.45", "L_bar=0.6", "tau=0",
        "r=0.04", "nu=0.5", "w=2", "cost_per_death=25", "chi=1.5",
        "n_S=80", "n_I=70", "n_L=21", "tol=1e-7", "max_iters=300",
        "S0=0.95", "I0=0.03", "horizon=25", "dt=0.002", "output_stride=5",
        "criteria=CU,CLU:c=2,RDCLU:c=1:rd=0.8:u=pow0.5", "samples=400",
        "seed=3", "pop_cap=6", "level_min=-5", "level_max=5",
        "reference_pop=40,60,10", "victim_lived=25", "victim_remaining=15",
        "exchange_rate=2", "ladder=0,5,10", "out_dir=results",
    ])
    cfg = parse_config(custom)
    assert parse_config(serialize_config(cfg)) == cfg
    # And for the defaults too.
    dflt = parse_config("")
    assert parse_config(serialize_config(dflt)) == dflt


def test_auto_values_survive_the_round_trip():
    cfg = parse_config("")
    text = serialize_config(cfg)
    assert "tol=auto" in text.splitlines()


# ---------------------------------------------------------------------------
# criterion mini-grammar
# ---------------------------------------------------------------------------

def test_criterion_spec_grammar():
    crit = criterion_from_spec("RDCLU:c=1:rd=0.9")
    assert crit.kind == "RDCLU" and crit.c == 1.0
    assert crit.rank_discount == 0.9
    powered = criterion_from_spec("CLU:c=2:u=pow0.5")
    assert powered.u.kind == "power" and powered.u.eta == 0.5
    assert criterion_from_spec("AU").kind == "AU"
    assert criterion_spec(criterion_from_spec("CU")) == "CU"
    assert criterion_spec(criterion_from_spec("TU")) == "TU"
    for spec in ("RDCLU:c=1:rd=0.9", "CLU:c=2:u=pow0.5", "CLU:c=1.5", "AU"):
        crit = criterion_from_spec(spec)
        assert criterion_from_spec(criterion_spec(crit)) == crit


def test_criterion_spec_errors():
    with pytest.raises(ConfigError, match="name=value"):
        criterion_from_spec("CLU:c")
    with pytest.raises(ConfigError, match="unknown criterion option"):
        criterion_from_spec("CLU:d=3")
    with pytest.raises(ConfigError, match="transform"):
        criterion_from_spec("CU:u=log")
    with pytest.raises(ConfigError, match="not a number"):
        criterion_from_spec("CLU:c=abc")


# ---------------------------------------------------------------------------
# rejection paths, with line numbers
# ---------------------------------------------------------------------------

def test_malformed_lines_are_rejected_with_line_numbers():
    with pytest.raises(ConfigError, match="line 2: expected key=value"):
        parse_config("theta=0.4\njust words\n")
    with pytest.raises(ConfigError, match="line 3: unknown key 'thta'"):
        parse_config("# c\n\nthta=0.4\n")
    with pytest.raises(ConfigError,
                       match=r"line 2: duplicate key 'theta' \(first set on "
                             r"line 1\)"):
        parse_config("theta=0.4\ntheta=0.5\n")


def test_domain_violations_name_the_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1: theta must lie in \(0"):
        parse_config("theta=1.5\n")
    with pytest.raises(ConfigError, match="line 1: tau"):
        parse_config("tau=2\n")
    with pytest.raises(ConfigError, match="line 2: dt.*stability"):
        parse_config("gamma=18\ndt=0.01\n")
    assert parse_config(f"dt={stability_bound(parse_config('').params)}\n")
    with pytest.raises(ConfigError, match="S0 \\+ I0"):
        parse_config("S0=0.9\nI0=0.2\n")
    with pytest.raises(ConfigError, match="line 1: S0 must lie in"):
        parse_config("S0=1.5\n")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("gamma=fast\n")
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config("n_S=12.5\n")
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config("w=inf\n")


def test_solver_and_ethics_knob_validation():
    with pytest.raises(ConfigError, match="tol must be positive"):
        parse_config("tol=0\n")
    with pytest.raises(ConfigError, match="max_iters"):
        parse_config("max_iters=0\n")
    with pytest.raises(ConfigError, match="at least one criterion"):
        parse_config("criteria=\n")
    with pytest.raises(ConfigError, match="line 1: RDCLU needs"):
        parse_config("criteria=RDCLU:c=1\n")
    with pytest.raises(ConfigError, match="pop_cap"):
        parse_config("pop_cap=1\n")
    with pytest.raises(ConfigError, match="level_min"):
        parse_config("level_min=4\nlevel_max=-4\n")
    with pytest.raises(ConfigError, match="ladder"):
        parse_config("ladder=0,-5\n")
    with pytest.raises(ConfigError, match="reference_pop"):
        parse_config("reference_pop=\n")
    with pytest.raises(ConfigError, match="out_dir"):
        parse_config("out_dir=\n")
    with pytest.raises(ConfigError,
                       match="line 1: remaining must be non-negative"):
        parse_config("victim_remaining=-2\n")


def test_unknown_criterion_kind_is_a_config_error():
    with pytest.raises(ConfigError, match="XU"):
        parse_config("criteria=XU\n")


# ---------------------------------------------------------------------------
# every rejection message, pinned
# ---------------------------------------------------------------------------

# Every rejection path with its exact message, line number included. The
# line is that of the first key the failing check names that the text
# set: I0 before S0, level_max before level_min, and for the stability
# bound dt, then beta_contact, then gamma.
REJECTIONS = [
    ("theta=0.4\njust words\n",
     "line 2: expected key=value, got 'just words'"),
    ("# c\n\nthta=0.4\n", "line 3: unknown key 'thta'"),
    ("theta=0.4\ntheta=0.5\n",
     "line 2: duplicate key 'theta' (first set on line 1)"),
    ("gamma=fast\n", "line 1: gamma: not a number: 'fast'"),
    ("w=inf\n", "line 1: w: must be finite, got 'inf'"),
    ("w=nan\n", "line 1: w: must be finite, got 'nan'"),
    ("n_S=12.5\n", "line 1: n_S: not an integer: '12.5'"),
    ("tau=1.0\n", "line 1: tau: not an integer: '1.0'"),
    ("S0=auto\n", "line 1: S0: not a number: 'auto'"),
    ("tol=abc\n", "line 1: tol: not a number: 'abc'"),
    ("seed=x\n", "line 1: seed: not an integer: 'x'"),
    ("reference_pop=1,x\n", "line 1: reference_pop: not a number: 'x'"),
    ("ladder=0,inf\n", "line 1: ladder: must be finite, got 'inf'"),
    ("criteria=CLU:c\n", "line 1: criterion option 'c' is not name=value"),
    ("criteria=CLU:d=3\n", "line 1: unknown criterion option 'd'"),
    ("criteria=CU:u=log\n", "line 1: criterion transform 'log' not "
                             "recognised (use identity or pow<eta>)"),
    ("criteria=CLU:c=abc\n", "line 1: criteria: not a number: 'abc'"),
    ("criteria=CU:u=powx\n", "line 1: criteria: not a number: 'x'"),
    ("criteria=XU\n", "line 1: unknown criterion kind 'XU'"),
    ("criteria=RDCLU:c=1\n", "line 1: RDCLU needs rank_discount in (0, 1)"),
    ("criteria=TU:c=2\n", "line 1: TU fixes the critical level at 0"),
    ("criteria=CU:c=5\n", "line 1: CU fixes the critical level at 0"),
    ("criteria=AU:c=1\n", "line 1: AU fixes the critical level at 0"),
    ("criteria=TU:rd=0.5\n", "line 1: TU takes no rank discount"),
    ("criteria=CLU:c=1:rd=0.5\n", "line 1: CLU takes no rank discount"),
    ("criteria=CLU:c=-1\n", "line 1: critical level c must be non-negative"),
    ("criteria=CU:u=pow1.5\n",
     "line 1: power exponent eta must lie in (0, 1)"),
    ("criteria=\n", "line 1: criteria must list at least one criterion"),
    ("criteria= , \n", "line 1: criteria must list at least one criterion"),
    ("beta_contact=0\n", "line 1: beta_contact must be strictly positive"),
    ("gamma=0\n", "line 1: gamma must be strictly positive"),
    ("r=0\n", "line 1: r must be strictly positive"),
    ("nu=-1\n", "line 1: nu must be strictly positive"),
    ("w=0\n", "line 1: w must be strictly positive"),
    ("phi0=0\n", "line 1: phi0 must lie in (0, gamma]"),
    ("kappa=-1\n", "line 1: kappa must be non-negative"),
    ("phi0=10\nkappa=10\n", "line 1: phi0 + kappa must not exceed gamma"),
    ("kappa=18\n", "line 1: phi0 + kappa must not exceed gamma"),
    ("theta=1.5\n", "line 1: theta must lie in (0, 1)"),
    ("L_bar=0\n", "line 1: L_bar must lie in (0, 1]"),
    ("tau=2\n", "line 1: tau must be 0 or 1"),
    ("cost_per_death=-1\n", "line 1: cost_per_death must be non-negative"),
    ("chi=-1\n", "line 1: chi must be non-negative"),
    ("n_S=2\n", "line 1: n_S and n_I must be at least 3"),
    ("n_I=2\n", "line 1: n_S and n_I must be at least 3"),
    ("n_L=1\n", "line 1: n_L must be at least 2"),
    ("tol=0\n", "line 1: tol must be positive"),
    ("S0=1.5\n", "line 1: S0 must lie in [0, 1], got 1.5"),
    ("I0=-0.1\n", "line 1: I0 must lie in [0, 1], got -0.1"),
    ("S0=0.9\nI0=0.2\n", "line 2: S0 + I0 must not exceed 1, got 1.1"),
    ("I0=0.2\nS0=0.9\n", "line 1: S0 + I0 must not exceed 1, got 1.1"),
    ("S0=0.99\n", "line 1: S0 + I0 must not exceed 1, got 1.01"),
    ("# header\n\nS0=0.5\nI0=0.7\n",
     "line 4: S0 + I0 must not exceed 1, got 1.2"),
    ("horizon=0\n", "line 1: horizon must be positive"),
    ("dt=0\n", "line 1: dt must be positive"),
    ("gamma=18\ndt=0.01\n", "line 2: dt=0.01 exceeds the stability bound "
     "0.1/max(beta_contact, gamma) = 0.002777777777777778"),
    # dt kept its default; the line is that of the rate that lowered the
    # bound.
    ("gamma=100\n", "line 1: dt=0.0027397260273972603 exceeds the "
     "stability bound 0.1/max(beta_contact, gamma) = 0.001"),
    ("gamma=100\nbeta_contact=100\n", "line 2: dt=0.0027397260273972603 "
     "exceeds the stability bound 0.1/max(beta_contact, gamma) = 0.001"),
    ("max_iters=0\n", "line 1: max_iters must be at least 1"),
    ("output_stride=0\n", "line 1: output_stride must be at least 1"),
    ("samples=0\n", "line 1: samples must be at least 1"),
    ("seed=-1\n", "line 1: seed must be >= 0"),
    ("pop_cap=1\n", "line 1: pop_cap must be at least 2"),
    ("level_min=4\nlevel_max=-4\n",
     "line 2: level_min must be strictly below level_max"),
    ("level_max=-4\nlevel_min=4\n",
     "line 1: level_min must be strictly below level_max"),
    ("level_max=-20\n", "line 1: level_min must be strictly below level_max"),
    ("level_min=20\n", "line 1: level_min must be strictly below level_max"),
    ("reference_pop=\n", "line 1: reference_pop must list at least one level"),
    ("victim_remaining=-2\n", "line 1: remaining must be non-negative"),
    ("exchange_rate=0\n", "line 1: exchange_rate must be strictly positive"),
    ("ladder=0,-5\n", "line 1: ladder costs must be non-negative"),
    ("out_dir=\n", "line 1: out_dir must not be empty"),
]


@pytest.mark.parametrize("text, message", REJECTIONS)
def test_rejection_messages_are_pinned(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_replacing_a_field_revalidates_the_config():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        replace(parse_config(""), seed=-1)


# ---------------------------------------------------------------------------
# round trip over drawn valid configs
# ---------------------------------------------------------------------------

def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def criteria(draw):
    # Only the fields a kind reads may be set: CLU and RDCLU take c,
    # RDCLU alone takes rd.
    kind = draw(st.sampled_from(("CU", "TU", "CLU", "AU", "RDCLU")))
    c = draw(_floats(0.0, 10.0)) if kind in ("CLU", "RDCLU") else 0.0
    rd = (draw(_floats(0.0, 1.0, exclude_min=True, exclude_max=True))
          if kind == "RDCLU" else 0.0)
    u = draw(st.one_of(
        st.just(UtilityTransform()),
        _floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
            lambda eta: UtilityTransform("power", eta=eta))))
    return WelfareCriterion(kind, c=c, rank_discount=rd, u=u)


@st.composite
def run_configs(draw):
    gamma = draw(_floats(0.5, 50.0))
    phi0 = draw(st.one_of(st.none(), _floats(0.0, 0.5 * gamma,
                                             exclude_min=True)))
    kappa = draw(st.one_of(st.none(), _floats(0.0, 0.5 * gamma)))
    params = PlannerParams(
        beta_contact=draw(_floats(0.5, 80.0)), gamma=gamma, phi0=phi0,
        kappa=kappa, theta=draw(_floats(0.05, 0.95)),
        L_bar=draw(_floats(0.05, 1.0)), tau=draw(st.sampled_from((0, 1))),
        r=draw(_floats(0.001, 1.0)), nu=draw(_floats(0.001, 5.0)),
        w=draw(_floats(0.01, 10.0)), cost_per_death=draw(_floats(0.0, 100.0)),
        chi=draw(_floats(0.0, 10.0)))
    S0 = draw(_floats(0.0, 1.0))
    level_min = draw(_floats(-50.0, 0.0))
    return RunConfig(
        params=params,
        grid=GridSpec(draw(st.integers(3, 500)), draw(st.integers(3, 500)),
                      draw(st.integers(2, 100))),
        S0=S0, I0=draw(_floats(0.0, 1.0 - S0)),
        horizon=draw(_floats(0.1, 50.0)),
        dt=draw(_floats(0.0, stability_bound(params), exclude_min=True)),
        tol=draw(st.one_of(st.none(), _floats(1e-12, 1e-3))),
        max_iters=draw(st.integers(1, 10_000)),
        output_stride=draw(st.integers(1, 100)),
        criteria=tuple(draw(st.lists(criteria(), min_size=1, max_size=6))),
        samples=draw(st.integers(1, 10_000)), seed=draw(st.integers(0, 2**32)),
        pop_cap=draw(st.integers(2, 16)), level_min=level_min,
        level_max=draw(_floats(level_min + 0.5, 50.0)),
        reference_pop=tuple(draw(st.lists(_floats(-50.0, 50.0), min_size=1,
                                          max_size=8))),
        victim=VictimProfile(draw(_floats(-50.0, 50.0)),
                             draw(_floats(0.0, 50.0)),
                             draw(_floats(0.01, 10.0))),
        ladder=tuple(draw(st.lists(_floats(0.0, 100.0), max_size=6))),
        out_dir=draw(st.text("abc_-./019", min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=run_configs())
def test_serialize_then_parse_is_identity(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(crit=criteria())
def test_criterion_spec_inverts_criterion_from_spec(crit):
    assert criterion_from_spec(criterion_spec(crit)) == crit
