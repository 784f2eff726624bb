"""Top-level acceptance criteria.

Each test prints one `[PASS]`/`[FAIL]` line (written straight to the
real stdout so the lines survive output capture) and then asserts.
The expensive 300x300 benchmark solves are shared via module fixtures.
"""

import math
import struct
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import conftest
from epiethics.cli import main as cli_main
from epiethics.epidemic import EpidemicState, PlannerParams, _flows
from epiethics.ethics import (Allocation, Ordering, WelfareCriterion,
                              check_axiom, compare, criterion_value,
                              repugnant_witness, replay_witness,
                              very_sadistic_witness, AXIOM_IDS)
from epiethics.output import fmt
from epiethics.planner import (GridSpec, PolicyField, simulate_optimal,
                               solve_value_function)
from epiethics.sensitivity import run_sensitivity

PARAMS = PlannerParams()
GRID = GridSpec()
STATE0 = EpidemicState(S=0.98, I=0.02, R=0.0)
HORIZON = 20.0
DT = 1.0 / 365.0

CU = WelfareCriterion("CU")
TU = WelfareCriterion("TU")
CLU1 = WelfareCriterion("CLU", c=1.0)
AU = WelfareCriterion("AU")
RD = WelfareCriterion("RDCLU", c=1.0, rank_discount=0.9)
ALL_FIVE = (CU, TU, CLU1, AU, RD)


def report(num: int, ok: bool, detail: str):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench():
    t0 = time.perf_counter()
    value, policy = solve_value_function(PARAMS, GRID)
    return value, policy, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bench_tau0():
    params = replace(PARAMS, tau=0)
    value, policy = solve_value_function(params, GRID)
    return params, value, policy


@pytest.fixture(scope="module")
def sims(bench, bench_tau0):
    _, policy1, _ = bench
    params0, _, policy0 = bench_tau0
    out = {}
    _, out["controlled_tau1"] = simulate_optimal(policy1, PARAMS, STATE0,
                                                 HORIZON, DT)
    _, out["uncontrolled_tau1"] = simulate_optimal(None, PARAMS, STATE0,
                                                   HORIZON, DT)
    _, out["controlled_tau0"] = simulate_optimal(policy0, params0, STATE0,
                                                 HORIZON, DT)
    _, out["uncontrolled_tau0"] = simulate_optimal(None, params0, STATE0,
                                                   HORIZON, DT)
    return out


@pytest.fixture(scope="module")
def ladder_report():
    t0 = time.perf_counter()
    rep = run_sensitivity(PARAMS, (CU,), grid=GRID, state0=STATE0,
                          horizon=HORIZON, dt=DT,
                          ladder=(0.0, 10.0, 20.0, 40.0))
    return rep, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. fatality calibration anchors
# ---------------------------------------------------------------------------

def test_criterion_1_fatality_anchors():
    g = PARAMS.gamma
    # phi(I) is the death flow per infected; phi(0) is phi0 itself.
    lo = PARAMS.phi0
    hi = _flows(0.6, 0.4, 0.0, PARAMS)[2] / 0.4
    ok = lo == 0.01 * g and abs(hi - 0.03 * g) <= 1e-15 * g
    report(1, ok,
           f"phi(0)={lo!r} vs 0.01*gamma={0.01 * g!r}; "
           f"phi(0.4)={hi!r} vs 0.03*gamma={0.03 * g!r} "
           f"(machine precision)")


# ---------------------------------------------------------------------------
# 2. boundary fidelity
# ---------------------------------------------------------------------------

def boundary_oracle(I0: float, params: PlannerParams) -> float:
    # With no susceptibles the infection stock simply decays at the exit
    # rate, so the discounted death cost is a 1-D integral.
    rho = params.r + params.nu
    price = params.cost_per_death + params.chi

    def integrand(t):
        I = I0 * math.exp(-params.gamma * t)
        return math.exp(-rho * t) * price * (params.phi0
                                             + params.kappa * I) * I

    val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    return val


def test_criterion_2_boundaries(bench):
    value, _, _ = bench
    zero_edge = float(np.max(np.abs(value.values[:, 0])))
    i_nodes = GRID.i_nodes()
    idx = np.unique(np.linspace(0, GRID.n_I - 1, 50).astype(int))
    errs = [abs(value.values[0, j] - boundary_oracle(i_nodes[j], PARAMS))
            for j in idx]
    worst = max(errs)
    ok = zero_edge == 0.0 and worst <= 1e-8
    report(2, ok,
           f"V(S,0) max |.| = {zero_edge!r} (exact zero row); "
           f"V(0,I) vs quadrature oracle at {len(idx)} I values: "
           f"max err {worst:.3e} <= 1e-8")


# ---------------------------------------------------------------------------
# 3. optimality sandwich
# ---------------------------------------------------------------------------

def test_criterion_3_optimality_sandwich(bench):
    value, _, elapsed = bench
    v_opt = value.at(STATE0.S, STATE0.I)
    slack = 2e-3 * PARAMS.w
    margins = {}
    for L in (0.0, 0.25 * PARAMS.L_bar, 0.5 * PARAMS.L_bar, PARAMS.L_bar):
        const = PolicyField.constant(GRID, L)
        cost = simulate_optimal(const, PARAMS, STATE0, HORIZON, DT)[1].value
        margins[L] = cost + slack - v_opt
    ok = all(m >= 0.0 for m in margins.values()) and elapsed < 60.0
    detail = ", ".join(f"L={L:g}: margin {m:+.2e}"
                       for L, m in margins.items())
    report(3, ok,
           f"V_opt(S0,I0)={v_opt:.6f} <= constant-policy cost + 2e-3*w "
           f"[{detail}]; solve took {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 4. zero-cost collapse
# ---------------------------------------------------------------------------

def test_criterion_4_zero_cost_collapse():
    params = replace(PARAMS, cost_per_death=0.0, chi=0.0)
    t0 = time.perf_counter()
    value, policy = solve_value_function(params, GRID)
    elapsed = time.perf_counter() - t0
    v_max = float(np.max(np.abs(value.values)))
    l_max = float(np.max(np.abs(policy.lockdown)))
    ok = v_max <= 1e-10 and l_max <= 1e-10 and elapsed < 60.0
    report(4, ok,
           f"cost_per_death=0, chi=0: max|V|={v_max:.2e}, "
           f"max|L|={l_max:.2e} (both <= 1e-10); solve {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. testing-regime ordering
# ---------------------------------------------------------------------------

def test_criterion_5_testing_regime_ordering(sims):
    end0 = sims["controlled_tau0"].lockdown_end
    end1 = sims["controlled_tau1"].lockdown_end
    d_c1 = sims["controlled_tau1"].total_deaths
    d_u1 = sims["uncontrolled_tau1"].total_deaths
    d_c0 = sims["controlled_tau0"].total_deaths
    d_u0 = sims["uncontrolled_tau0"].total_deaths
    ok = end0 <= end1 and d_c1 < d_u1 and d_c0 < d_u0
    report(5, ok,
           f"lockdown end: tau=0 at {end0:.3f}y <= tau=1 at {end1:.3f}y; "
           f"deaths controlled<uncontrolled: tau=1 {d_c1:.5f}<{d_u1:.5f}, "
           f"tau=0 {d_c0:.5f}<{d_u0:.5f}")


# ---------------------------------------------------------------------------
# 6. headline outcome magnitudes (best effort)
# ---------------------------------------------------------------------------

def test_criterion_6_headline_magnitudes(sims):
    con = sims["controlled_tau1"]
    unc = sims["uncontrolled_tau1"]
    reduction = unc.total_deaths - con.total_deaths
    death_share = con.death_cost / con.value
    gdp_share = con.gdp_loss / con.value
    ok = 0.001 <= reduction <= 0.02 and death_share > gdp_share
    report(6, ok,
           f"deaths reduced by {100 * reduction:.3f}% of population "
           f"(required [0.1%, 2%]; reference figure 0.80%); "
           f"death-cost share {death_share:.3f} > GDP-loss share "
           f"{gdp_share:.3f} (reference: death costs ~3x GDP costs)")


# ---------------------------------------------------------------------------
# 7. conclusion witnesses
# ---------------------------------------------------------------------------

def test_criterion_7_conclusion_witnesses():
    base = Allocation.of(100.0)
    tu_wit = repugnant_witness(TU, base, 0.1, 100_000)
    tu_ok = tu_wit is not None and tu_wit.payload["n"] == 1001

    sad = very_sadistic_witness(CLU1, 1_000)
    sad_ok = (sad is not None
              and sad.payload["positive"].levels == (0.5,) * 5
              and sad.payload["negative"].levels == (-1.0,)
              and compare(sad.payload["positive"], sad.payload["negative"],
                          CLU1) is Ordering.StrictlyWorse)

    rd_wit = repugnant_witness(RD, base, 0.1, 100_000)
    # n copies of eps: sum_{r=1..n} rd^r (eps - c) -> rd(eps-c)/(1-rd)
    bound = RD.rank_discount * (0.1 - RD.c) / (1.0 - RD.rank_discount)
    top = criterion_value(base, RD)
    ns = (1, 10, 100, 1_000, 10_000)
    vals = [criterion_value(Allocation((0.1,) * n), RD) for n in ns]
    rd_ok = (rd_wit is None
             and all(v >= bound - 1e-9 for v in vals)
             and all(v < top for v in vals))

    ok = tu_ok and sad_ok and rd_ok
    n_txt = tu_wit.payload["n"] if tu_wit else "none"
    report(7, ok,
           f"TU repugnant witness n={n_txt} (expected 1001); "
           f"CLU(c=1) very-sadistic witness 5x0.5 vs (-1) verifies; "
           f"RDCLU(c=1,rd=0.9) no repugnant witness to 1e5, n-copy values "
           f"within geometric bound {bound:g} and below base value {top:g}")


# ---------------------------------------------------------------------------
# 8. axiom suite
# ---------------------------------------------------------------------------

def test_criterion_8_axiom_suite():
    a3_verdicts = {c.label: check_axiom(c, "A3", samples=1000, seed=0).verdict
                   for c in ALL_FIVE}
    a3_ok = all(v == "pass" for v in a3_verdicts.values())

    a6_clu = check_axiom(CLU1, "A6", samples=500, seed=0)
    a6_rd = check_axiom(RD, "A6", samples=500, seed=0)
    a6_ok = (a6_clu.verdict == "pass" and a6_clu.witness.payload["c"] == 1.0
             and a6_rd.verdict == "pass"
             and a6_rd.witness.payload["c"] == 1.0)

    a4_au = check_axiom(AU, "A4", samples=500, seed=0)
    a4_ok = (a4_au.verdict == "fail"
             and a4_au.witness.payload["x"].levels == (1.0,)
             and a4_au.witness.payload["y"].levels == (0.6, 1.5)
             and a4_au.witness.payload["z"] == 3.0
             and replay_witness(AU, a4_au))

    fails = 0
    replays_ok = True
    for crit in ALL_FIVE:
        for axiom in AXIOM_IDS:
            rep = check_axiom(crit, axiom, samples=400, seed=0)
            if rep.verdict == "fail":
                fails += 1
                replays_ok = replays_ok and replay_witness(crit, rep)

    ok = a3_ok and a6_ok and a4_ok and fails > 0 and replays_ok
    report(8, ok,
           f"A3 pass x5 @1000 samples; A6 pass for CLU(c=1) and "
           f"RDCLU (witness critical level 1 >= max); A4 fails for AU with "
           f"witness (1.0) vs (0.6,1.5), z=3; all {fails} fail witnesses "
           f"across the 5x8 suite replay deterministically")


# ---------------------------------------------------------------------------
# 9. sensitivity ladder
# ---------------------------------------------------------------------------

def _packed(row):
    return struct.pack("<5d", row.cost_per_death, row.peak_L,
                       row.lockdown_years, row.deaths, row.gdp_loss)


def test_criterion_9_sensitivity_ladder(ladder_report):
    rep, elapsed = ladder_report
    ladder = {row.label: row for row in rep.ladder}
    rows = [ladder[f"fixed:{c:g}"] for c in (0, 10, 20, 40)]
    deaths_ok = all(rows[k + 1].deaths <= rows[k].deaths + 1e-3
                    for k in range(3))
    peak_ok = all(rows[k + 1].peak_L >= rows[k].peak_L - 1e-3
                  for k in range(3))

    cu_row = rep.rows[0]
    base = rep.baseline
    byte_ok = (_packed(cu_row) == _packed(base)
               and cu_row.value == base.value
               and all(fmt(getattr(cu_row, f)) == fmt(getattr(base, f))
                       for f in ("cost_per_death", "peak_L",
                                 "lockdown_years", "deaths", "gdp_loss",
                                 "value")))
    ok = deaths_ok and peak_ok and byte_ok and elapsed < 300.0
    deaths_txt = ", ".join(f"{r.deaths:.5f}" for r in rows)
    peaks_txt = ", ".join(f"{r.peak_L:.3f}" for r in rows)
    report(9, ok,
           f"ladder 0/10/20/40*w: deaths [{deaths_txt}] non-increasing, "
           f"peak lockdown [{peaks_txt}] non-decreasing (tol 1e-3); CU row "
           f"byte-identical to benchmark row; total {elapsed:.0f}s (< 5min)")


# ---------------------------------------------------------------------------
# 10. determinism of the command line
# ---------------------------------------------------------------------------

def _run_twice(tmp_path: Path, cfg_name: str, cfg_text: str, argv_tail):
    cfg = tmp_path / cfg_name
    cfg.write_text(cfg_text, encoding="utf-8")
    produced = []
    for sub in ("a", "b"):
        out = tmp_path / f"{cfg_name}.{sub}"
        rc = cli_main(["--config", str(cfg), "--out", str(out)] + argv_tail)
        assert rc == 0
        produced.append(out)
    a, b = produced
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    mismatched = []
    for name in names:
        if name == "run_manifest":
            strip = lambda p: [ln for ln in (p / name)
                               .read_text(encoding="utf-8").splitlines()
                               if not ln.startswith("wall_time_s=")]
            if strip(a) != strip(b):
                mismatched.append(name)
        elif (a / name).read_bytes() != (b / name).read_bytes():
            mismatched.append(name)
    return names, mismatched


def test_criterion_10_byte_identical_reruns(tmp_path):
    solve_names, solve_bad = _run_twice(
        tmp_path, "solve.cfg", "n_S=80\nn_I=80\nn_L=21\n", ["solve"])
    eth_names, eth_bad = _run_twice(
        tmp_path, "ethics.cfg", "samples=150\nseed=7\n", ["ethics"])
    sim_names, sim_bad = _run_twice(
        tmp_path, "sim.cfg", "n_S=60\nn_I=60\nn_L=11\nhorizon=5\n",
        ["simulate"])
    ok = not (solve_bad or eth_bad or sim_bad)
    report(10, ok,
           f"repeat runs byte-identical (manifest compared without its "
           f"wall-time line): solve {solve_names}, ethics {eth_names}, "
           f"simulate {sim_names}; mismatches: "
           f"{solve_bad + eth_bad + sim_bad or 'none'}")
