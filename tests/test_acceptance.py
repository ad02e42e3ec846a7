"""Acceptance suite: every exit criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` for one PASS/FAIL line per
criterion.  Monte Carlo criteria use fixed master seeds with per-replicate
streams, so the whole suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from pdmp_impulse.controlled import (
    INTERVENTION,
    AugmentedState,
    aug_step,
    check_intervention_markov,
    check_joint_law,
    estimate_cost_J,
    simulate_controlled,
)
from pdmp_impulse.dynamics import (
    default_horizon,
    hit_time,
    lockstep_costs,
    sample_sojourn,
    simulate_uncontrolled,
)
from pdmp_impulse.model import as_state
from pdmp_impulse.operators import MinRelocationValue, op_J, op_K
from pdmp_impulse.valuefn import FunctionStore, GridSpec, compute_h, value_iterate

from conftest import PINNED

KS_COEF_1PCT = math.sqrt(-0.5 * math.log(0.005))


def report(index: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {index}: {detail}")
    assert passed, f"criterion {index}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_fixed_point_residual(rm1):
    t0 = time.monotonic()
    h = compute_h(rm1, GridSpec(density=200, extra_points=PINNED))
    build_seconds = time.monotonic() - t0
    sup_h = max(float(np.max(np.abs(v))) for v in h.values.values())
    worst = 0.0
    for mode in (1, 2):
        axis = h.axes[mode][0]
        for i, z in enumerate(axis):
            x = as_state(mode, float(z))
            residual = abs(op_K(rm1, h, x) - float(h.values[mode][i]))
            worst = max(worst, residual)
    tol = 1e-6 * (1.0 + sup_h)
    ok = worst <= tol and build_seconds < 60.0
    report(1, ok,
           f"fixed-point residual sup|Kh-h| = {worst:.3e} (tol {tol:.3e}), "
           f"compute time {build_seconds:.1f}s (< 60s)")


CRITERION_02_STARTS = ((1, 2.0, 101), (2, 4.0, 102), (1, 7.0, 103))


def test_criterion_02_no_impulse_cost_cross_oracle(rm1, rm1_h):
    t0 = time.monotonic()
    horizon = default_horizon(rm1)
    n = 100_000
    details = []
    ok = True
    for mode, zeta, seed in CRITERION_02_STARTS:
        x0 = as_state(mode, zeta)
        costs = lockstep_costs(rm1, None, x0, 0, horizon, seed, n).running
        mean = float(costs.mean())
        se = float(costs.std(ddof=1) / math.sqrt(n))
        dev = abs(mean - rm1_h.eval(x0)) / se
        ok = ok and dev < 3.0
        details.append(f"x0=({mode},{zeta}): |dev|={dev:.2f} SE")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(2, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 120s)")


def test_criterion_02_lockstep_costs_are_the_scalar_costs(rm1):
    """Criterion 2 runs the lockstep engine; per replicate it gives the
    scalar path's cost up to numpy's exp and log against the math
    module's."""
    horizon = default_horizon(rm1)
    n = 3000
    for mode, zeta, seed in CRITERION_02_STARTS:
        x0 = as_state(mode, zeta)
        batched = lockstep_costs(rm1, None, x0, 0, horizon, seed, n).running
        scalar = np.array([
            simulate_uncontrolled(rm1, x0, horizon, np.random.default_rng([seed, rep]),
                                  collect_events=False).discounted_running_cost
            for rep in range(n)
        ])
        assert np.all(np.abs(batched - scalar) <= 1e-15 * np.abs(scalar))


def test_criterion_03_sandwich_bounds(rm1, rm1_h, rm1_table):
    t0 = time.monotonic()
    eps = rm1_table.eps
    fine = value_iterate(rm1, rm1_h, n_max=3, eps=1e-4)
    worst_lo, worst_hi = 0.0, -math.inf
    ok = True
    for k in (1, 2, 3):
        for mode in (1, 2):
            diff = rm1_table.stages[k - 1].value[mode] - fine.stages[k - 1].value[mode]
            lo = float(diff.min())
            excess = float(diff.max()) - k * eps
            worst_lo = min(worst_lo, lo)
            worst_hi = max(worst_hi, excess)
            ok = ok and lo >= -1e-3 and excess <= 1e-3
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(3, ok,
           f"eps vs eps/100 difference in [-1e-3, k*eps+1e-3]: "
           f"min diff {worst_lo:.2e}, max excess {worst_hi:.2e}; "
           f"{elapsed:.0f}s (< 300s)")


def test_criterion_04_strategy_cost_identity(rm1, rm1_table):
    t0 = time.monotonic()
    n = 100_000
    ok = True
    details = []
    for mode, zeta in ((1, 2.0), (2, 4.0)):
        x0 = as_state(mode, zeta)
        for n0 in (0, 1, 2, 3):
            seed = 2000 + 10 * mode + n0
            est = estimate_cost_J(x0, n0, rm1_table, rm1, replicates=n, seed=seed)
            v_ref = rm1_table.value(n0, x0)
            covered = est.ci95[0] <= v_ref <= est.ci95[1]
            dev = abs(est.mean - v_ref) / est.std_error
            ok = ok and covered and dev < 3.0
            details.append(f"({mode},{zeta})/N0={n0}: dev={dev:.2f}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report(4, ok, "; ".join(details) + f"; {elapsed:.0f}s (< 600s)")


def test_criterion_05_threshold_strictly_before_boundary(rm1, rm1_table):
    violations = 0
    total = 0
    for stage in rm1_table.stages:
        for mode in (1, 2):
            axis = rm1_table.axes[mode][0]
            t_star = np.array([hit_time(rm1, as_state(mode, float(z))) for z in axis])
            intervene = ~stage.wait[mode]
            violations += int(np.sum(intervene & (stage.r[mode] >= t_star)))
            total += int(intervene.sum())
    report(5, violations == 0,
           f"{violations} intervention nodes with r >= t* out of {total}")


def test_criterion_06_survival_law(rm1):
    x = as_state(1, 2.0)
    ts = hit_time(rm1, x)
    lam = 0.5
    n = 100_000
    rng = np.random.default_rng(606)
    interior = []
    n_boundary = 0
    for _ in range(n):
        s, hit = sample_sojourn(rm1, x, rng.random())
        if hit:
            n_boundary += 1
        else:
            interior.append(s)
    p_atom = math.exp(-lam * ts)
    se = math.sqrt(p_atom * (1 - p_atom) / n)
    atom_dev = abs(n_boundary / n - p_atom) / se
    denom = 1.0 - p_atom

    def trunc_cdf(t):
        return (1.0 - np.exp(-lam * np.asarray(t))) / denom

    ks = stats.kstest(np.asarray(interior), trunc_cdf).statistic
    crit = KS_COEF_1PCT / math.sqrt(len(interior))
    ok = ks < crit and atom_dev < 3.0
    report(6, ok,
           f"KS {ks:.5f} < {crit:.5f} (1% critical); boundary-atom dev "
           f"{atom_dev:.2f} SE (< 3)")


def test_criterion_07_first_transition_law(rm1, rm1_table):
    ok = True
    details = []
    for n0, seed in ((1, 701), (2, 702)):
        rep_report = check_joint_law(as_state(1, 2.0), n0, rm1_table, rm1,
                                     replicates=100_000, seed=seed)
        ok = ok and rep_report.max_abs_dev < 3.0
        details.append(f"N0={n0}: max dev {rep_report.max_abs_dev:.2f} SE")
    report(7, ok, "; ".join(details) + " (< 3)")


def test_criterion_08_operator_monotonicity(rm1, rm1_h):
    rng = np.random.default_rng(808)
    xs = [as_state(1, 2.0), as_state(2, 4.0)]
    beta = 0.4
    worst = 0.0
    ok = True
    for _ in range(100):
        w_vals = {m: rng.random(rm1_h.values[m].shape) * 4.0 for m in rm1_h.values}
        bump = {m: rng.random(w_vals[m].shape) * beta for m in w_vals}
        w = FunctionStore(rm1_h.axes, w_vals, rm1_h.coverage)
        w_up = FunctionStore(rm1_h.axes, {m: w_vals[m] + bump[m] for m in w_vals},
                             rm1_h.coverage)
        phi = [w.eval(y) for y in rm1.control_set]
        phi_up = [w_up.eval(y) for y in rm1.control_set]
        v = MinRelocationValue(rm1, phi)
        v_up = MinRelocationValue(rm1, phi_up)
        for x in xs:
            k_lo = op_K(rm1, w, x)
            k_hi = op_K(rm1, w_up, x)
            worst = max(worst, k_lo - k_hi, k_hi - k_lo - beta)
            ok = ok and (k_lo - 1e-8 <= k_hi <= k_lo + beta + 1e-8)
            t = float(rng.random() * hit_time(rm1, x))
            j_lo = op_J(rm1, v, w, x, t)
            j_hi = op_J(rm1, v_up, w_up, x, t)
            worst = max(worst, j_lo - j_hi, j_hi - j_lo - beta)
            ok = ok and (j_lo - 1e-8 <= j_hi <= j_lo + beta + 1e-8)
    report(8, ok,
           f"100 random pairs: max sandwich violation {worst:.2e} (tol 1e-8)")


def test_criterion_09_trivial_model_suite(rm1_zero_running, zero_running_table):
    table, h0 = zero_running_table
    h_zero = all(np.all(v == 0.0) for v in h0.values.values())
    v_zero = all(
        np.all(stage.value[m] == 0.0)
        for stage in table.stages for m in stage.value
    )
    n_interv = 0
    cost = 0.0
    for rep in range(200):
        rng = np.random.default_rng([909, rep])
        traj = simulate_controlled(as_state(1, 4.0), 2, table, rm1_zero_running, rng)
        n_interv += traj.n_interventions
        cost += traj.total_cost
    ok = h_zero and v_zero and n_interv == 0 and cost == 0.0
    report(9, ok,
           f"h==0: {h_zero}, V_k==0: {v_zero}, interventions: {n_interv}, "
           f"total cost: {cost} (all exact)")


def test_criterion_10_projection_property(rm1, rm1_table):
    x0 = as_state(1, 2.0)
    horizon = 12.0  # beyond the worst-case first-jump time
    n = 100_000
    plain_interior = []
    plain_boundary = 0
    plain_posts = set()
    for rep in range(n):
        rng = np.random.default_rng([1010, rep])
        first = simulate_uncontrolled(rm1, x0, horizon, rng).events[0]
        if first.boundary_hit:
            plain_boundary += 1
        else:
            plain_interior.append(first.sojourn)
        plain_posts.add((first.post_jump.mode, first.post_jump.zeta))
    aug_interior = []
    aug_boundary = 0
    aug_posts = set()
    start = AugmentedState(x0.mode, x0.zeta, 0, 0.0)
    for rep in range(n):
        rng = np.random.default_rng([2020, rep])
        _nxt, event = aug_step(start, rm1_table, rm1, rng)
        if event.cap_hit:
            aug_boundary += 1
        else:
            aug_interior.append(event.sojourn)
        aug_posts.add((event.post.mode, event.post.zeta))
    p1 = plain_boundary / n
    p2 = aug_boundary / n
    pooled = 0.5 * (p1 + p2)
    se = math.sqrt(pooled * (1 - pooled) * 2 / n)
    atom_dev = abs(p1 - p2) / se
    ks_res = stats.ks_2samp(plain_interior, aug_interior, method="asymp")
    n1, n2 = len(plain_interior), len(aug_interior)
    crit = KS_COEF_1PCT * math.sqrt((n1 + n2) / (n1 * n2))
    ok = atom_dev < 3.0 and ks_res.statistic < crit and plain_posts == aug_posts
    report(10, ok,
           f"boundary-freq dev {atom_dev:.2f} SE (< 3); interior sojourn KS "
           f"{ks_res.statistic:.5f} < {crit:.5f}; post-jump atoms match: "
           f"{plain_posts == aug_posts}")


def test_criterion_11_intervention_markov(rm1, rm1_table):
    rep_report = check_intervention_markov(as_state(1, 2.0), 2, rm1_table, rm1,
                                           replicates=10_000, seed=1111, i=1)
    detail = "; ".join(
        f"{g.label}: KS {g.ks_statistic:.4f} < {g.ks_critical_1pct:.4f}"
        for g in rep_report.groups
    )
    ok = rep_report.passed and len(rep_report.groups) >= 1
    report(11, ok, detail)


def test_criterion_11_restart_check_with_spread(rm1, rm1_table):
    """Criterion 11 where the restart check has power: from (1, 2.0) at
    N0 = 3 the paths that intervene first restart at (mode 1, budget 2), and
    their shifted second intervention times spread out."""
    x0, n0, seed, replicates = as_state(1, 2.0), 3, 1112, 10_000
    rep_report = check_intervention_markov(x0, n0, rm1_table, rm1,
                                           replicates=replicates, seed=seed, i=2)
    label = "intervention-first->mode1,budget2"
    group = next(g for g in rep_report.groups if g.label == label)
    costs = lockstep_costs(rm1, rm1_table, x0, n0, 0.0, seed, replicates)
    first = costs.first
    restarted = first["intervened"] & (first["post_mode"] == 1) & (first["post_budget"] == 2)
    shifted = costs.tau[restarted, 1] - first["sojourn"][restarted]
    assert shifted.size == group.n_observed
    distinct = np.unique(shifted).size
    report(11, rep_report.passed and distinct > group.n_observed // 2,
           f"{label}: {group.n_observed} paths, {distinct} distinct shifted times, "
           f"KS {group.ks_statistic:.4f} < {group.ks_critical_1pct:.4f}")
