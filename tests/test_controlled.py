import math
from collections import Counter

import numpy as np
import pytest

from pdmp_impulse.controlled import (
    CEMETERY,
    INTERVENTION,
    NATURAL,
    AugmentedState,
    aug_flow,
    aug_hit_time,
    aug_step,
    check_intervention_markov,
    check_joint_law,
    estimate_cost_J,
    simulate_controlled,
)
from pdmp_impulse.dynamics import (
    _raw_step,
    _runtime,
    default_horizon,
    hit_time,
    lockstep_costs,
    simulate_uncontrolled,
)
from pdmp_impulse.errors import DomainError, PolicyCoverageError
from pdmp_impulse.model import StatePoint, as_state, load_model
from pdmp_impulse.valuefn import GridSpec, compute_h, policy_query, value_iterate

from conftest import feature_model, rm1_doc


# ---------------------------------------------------------------------------
# Augmented state and flow


def test_augmented_state_guards():
    with pytest.raises(DomainError):
        AugmentedState(1, (2.0,), -1, 0.0)
    with pytest.raises(DomainError):
        AugmentedState(1, (2.0,), 0, -0.5)
    s = AugmentedState(1, (2.0,), 2, 0.0)
    assert s.project() == as_state(1, 2.0)


def test_aug_flow_closed_form(rm1):
    s = AugmentedState(1, (2.0,), 1, 0.0)
    moved = aug_flow(rm1, s, 0.5)
    assert moved == AugmentedState(1, (1.5,), 1, 0.5)


def test_aug_flow_cemetery_absorbing(rm1):
    assert aug_flow(rm1, CEMETERY, 3.0) is CEMETERY


def test_aug_flow_identity_at_zero(rm1):
    s = AugmentedState(2, (4.0,), 2, 0.25)
    assert aug_flow(rm1, s, 0.0) == s


def test_aug_flow_domain_guard(rm1, rm1_table):
    s = AugmentedState(1, (2.0,), 1, 0.0)
    with pytest.raises(DomainError):
        aug_flow(rm1, s, 2.5)
    # With the policy the cap is the planned intervention time (< t*).
    cap = aug_hit_time(rm1, s, rm1_table)
    with pytest.raises(DomainError):
        aug_flow(rm1, s, cap + 1e-6, table=rm1_table)


# ---------------------------------------------------------------------------
# Augmented hit time


def test_aug_hit_time_budget_zero_is_boundary_time(rm1, rm1_table):
    s = AugmentedState(1, (2.0,), 0, 0.0)
    assert aug_hit_time(rm1, s, rm1_table) == pytest.approx(2.0)


def test_aug_hit_time_waiting_node(rm1, rm1_table):
    s = AugmentedState(2, (0.5,), 1, 0.0)
    assert aug_hit_time(rm1, s, rm1_table) == hit_time(rm1, as_state(2, 0.5))


def test_aug_hit_time_intervention_node(rm1, rm1_table):
    s = AugmentedState(1, (2.0,), 1, 0.0)
    cap = aug_hit_time(rm1, s, rm1_table)
    assert cap < hit_time(rm1, as_state(1, 2.0))
    assert cap == policy_query(rm1_table, as_state(1, 2.0), 1, model=rm1).r


# ---------------------------------------------------------------------------
# Single steps


def test_step_budget_zero_always_natural(rm1, rm1_table):
    for rep in range(40):
        rng = np.random.default_rng([100, rep])
        s = AugmentedState(1, (2.0,), 0, 0.0)
        nxt, event = aug_step(s, rm1_table, rm1, rng)
        assert event.kind == NATURAL
        assert nxt.budget == 0
        assert nxt.clock == 0.0


def test_step_cemetery_rejected(rm1, rm1_table):
    with pytest.raises(DomainError):
        aug_step(CEMETERY, rm1_table, rm1, np.random.default_rng(0))


AUG_ENTRIES = {
    "aug_flow": lambda model, table, s: aug_flow(model, s, 0.5),
    "aug_hit_time": lambda model, table, s: aug_hit_time(model, s, table),
    "aug_step": lambda model, table, s: aug_step(s, table, model, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", AUG_ENTRIES)
@pytest.mark.parametrize("zeta,mode", [((2.0,), 9), ((1.0, 2.0), 1), ((11.0,), 1)],
                         ids=["mode", "dimension", "outside"])
def test_augmented_entries_check_the_start(rm1, rm1_table, entry, zeta, mode):
    with pytest.raises(DomainError):
        AUG_ENTRIES[entry](rm1, rm1_table, AugmentedState(mode, zeta, 1, 0.0))


def test_step_deterministic_intervention_without_hazard(
    rm1_zero_intensity, zero_intensity_table
):
    table, _h = zero_intensity_table
    model = rm1_zero_intensity
    x = as_state(1, 5.0)
    res = policy_query(table, x, 1, model=model)
    assert res.branch == "intervene"
    for rep in range(25):
        rng = np.random.default_rng([55, rep])
        nxt, event = aug_step(AugmentedState(1, (5.0,), 1, 0.0), table, model, rng)
        assert event.kind == INTERVENTION
        assert event.sojourn == res.r
        assert nxt == AugmentedState(res.y.mode, res.y.zeta, 0, 0.0)


def test_intervention_frequency_matches_survival_mass(rm1, rm1_table):
    x = as_state(1, 2.0)
    res = policy_query(rm1_table, x, 1, model=rm1)
    p = math.exp(-0.5 * res.r)  # survival to the planned time, constant rate
    n = 20_000
    hits = 0
    for rep in range(n):
        rng = np.random.default_rng([200, rep])
        _nxt, event = aug_step(AugmentedState(1, (2.0,), 1, 0.0), rm1_table, rm1, rng)
        hits += event.kind == INTERVENTION
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * se


# ---------------------------------------------------------------------------
# Whole trajectories


def test_budget_zero_reproduces_uncontrolled_paths_exactly(rm1, rm1_table):
    """Same per-replicate streams: the two engines must agree to the bit."""
    horizon = default_horizon(rm1)
    x0 = as_state(1, 2.0)
    for rep in range(100):
        plain = simulate_uncontrolled(
            rm1, x0, horizon, np.random.default_rng([321, rep]), collect_events=False
        )
        controlled = simulate_controlled(
            x0, 0, rm1_table, rm1, np.random.default_rng([321, rep]),
            horizon=horizon,
        )
        assert controlled.intervention_cost == 0.0
        assert controlled.running_cost == plain.discounted_running_cost


def test_zero_running_cost_all_wait_policy_costs_nothing(
    rm1_zero_running, zero_running_table
):
    table, _h = zero_running_table
    for rep in range(50):
        rng = np.random.default_rng([77, rep])
        traj = simulate_controlled(as_state(1, 4.0), 2, table, rm1_zero_running, rng)
        assert traj.total_cost == 0.0
        assert traj.n_interventions == 0


def test_budget_and_clock_invariants(rm1, rm1_table):
    horizon = default_horizon(rm1)
    for rep in range(60):
        rng = np.random.default_rng([888, rep])
        traj = simulate_controlled(as_state(1, 7.0), 3, rm1_table, rm1, rng,
                                   horizon=horizon)
        budgets = [traj.start.budget] + [e.post.budget for e in traj.events]
        jumps_while_positive = 0
        for before, after, event in zip(budgets, budgets[1:], traj.events):
            assert event.kind in (NATURAL, INTERVENTION)
            if before > 0:
                assert after == before - 1
                jumps_while_positive += 1
            else:
                assert after == 0
            assert event.pre.clock == event.sojourn
            assert event.post.clock == 0.0
        assert jumps_while_positive == 3
        n_interv = sum(e.kind == INTERVENTION for e in traj.events)
        assert n_interv == traj.n_interventions <= 3
        assert traj.tau_times == tuple(
            e.time for e in traj.events if e.kind == INTERVENTION
        )
        assert traj.total_cost <= rm1.costs.running_bound / rm1.discount \
            + 3 * rm1.costs.c_upper
        assert traj.tau(100) == math.inf
        assert traj.restart(100) is CEMETERY


def test_interventions_only_on_intervention_branch(rm1, rm1_table):
    for rep in range(60):
        rng = np.random.default_rng([999, rep])
        traj = simulate_controlled(as_state(2, 6.0), 2, rm1_table, rm1, rng)
        for event in traj.events:
            if event.kind == INTERVENTION:
                assert event.cap_hit
                restart = (event.post.mode, event.post.zeta)
                assert restart in [(y.mode, y.zeta) for y in rm1.control_set]


def test_cost_identity_budget_one(rm1, rm1_table):
    x0 = as_state(1, 2.0)
    est = estimate_cost_J(x0, 1, rm1_table, rm1, replicates=20_000, seed=42)
    v1 = rm1_table.value(1, x0)
    assert abs(est.mean - v1) < 4 * est.std_error
    assert est.ci95[0] < v1 < est.ci95[1]
    assert est.running_mean + est.intervention_mean == pytest.approx(est.mean)
    assert sum(est.intervention_counts.values()) == 20_000


def test_estimate_zero_cost_model(rm1_zero_running, zero_running_table):
    table, _h = zero_running_table
    est = estimate_cost_J(as_state(1, 4.0), 2, table, rm1_zero_running,
                          replicates=200, seed=1)
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.intervention_counts == {0: 200}


def test_estimate_budget_zero_ci_covers_h(rm1, rm1_table, rm1_h):
    x0 = as_state(2, 4.0)
    est = estimate_cost_J(x0, 0, rm1_table, rm1, replicates=20_000, seed=3)
    lo, hi = est.ci95
    h_val = rm1_h.eval(x0)
    assert lo - 2 * est.std_error < h_val < hi + 2 * est.std_error


def test_estimate_guards(rm1, rm1_table):
    with pytest.raises(DomainError):
        estimate_cost_J(as_state(1, 2.0), 1, rm1_table, rm1, replicates=0, seed=1)
    with pytest.raises(PolicyCoverageError):
        simulate_controlled(as_state(1, 2.0), 9, rm1_table, rm1,
                            np.random.default_rng(0))


def test_trajectory_json_line(rm1, rm1_table):
    import json

    rng = np.random.default_rng(12)
    traj = simulate_controlled(as_state(1, 2.0), 1, rm1_table, rm1, rng)
    payload = json.loads(traj.to_json_line())
    assert payload["start"] == [1, [2.0], 1]
    assert len(payload["events"]) == len(traj.events)


# ---------------------------------------------------------------------------
# First-transition law


def test_joint_law_budget_zero_no_interventions(rm1, rm1_table):
    report = check_joint_law(as_state(1, 2.0), 0, rm1_table, rm1,
                             replicates=2000, seed=4)
    interv = next(r for r in report.rows if r.name == "intervention")
    assert interv.observed == 0.0
    assert interv.expected == 0.0


def test_joint_law_deterministic_intervention(rm1_zero_intensity, zero_intensity_table):
    table, _h = zero_intensity_table
    report = check_joint_law(as_state(1, 5.0), 1, table, rm1_zero_intensity,
                             replicates=500, seed=4)
    interv = next(r for r in report.rows if r.name == "intervention")
    assert interv.expected == 1.0
    assert interv.observed == 1.0


def test_joint_law_rm1_smoke(rm1, rm1_table):
    report = check_joint_law(as_state(1, 2.0), 1, rm1_table, rm1,
                             replicates=20_000, seed=6)
    assert report.max_abs_dev < 4.0
    names = {r.name for r in report.rows}
    assert "interior_jump" in names and "intervention" in names


def test_joint_law_budget_two_includes_boundary(rm1, rm1_table):
    report = check_joint_law(as_state(1, 2.0), 2, rm1_table, rm1,
                             replicates=20_000, seed=7)
    boundary = next(r for r in report.rows if r.name == "boundary_natural_jump")
    # Budget 2 waits in mode 1, so the boundary carries the survival mass.
    assert boundary.expected == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert report.max_abs_dev < 4.0


def _first_step_tally(model, table, x0, n0, seed, replicates):
    """Row counts of the joint-law report, tallied over the scalar step core
    on the replicate streams default_rng([seed, r])."""
    rt = _runtime(model)
    tally = Counter()
    for rep in range(replicates):
        step = _raw_step(rt, table, x0.mode, x0.zeta, n0,
                         np.random.default_rng([seed, rep]).random)
        kind, cap_hit, index = step[1], step[2], step[7]
        if kind == INTERVENTION:
            tally["intervention"] += 1
        elif cap_hit:
            tally["boundary_natural_jump"] += 1
            tally[f"boundary_atom_{index}"] += 1
        else:
            tally["interior_jump"] += 1
            tally[f"interior_atom_{index}"] += 1
    return tally


@pytest.fixture(scope="module")
def region_split():
    model, density = feature_model("affine_intensity_region_split_kernel")
    spec = GridSpec(density=density, extra_points={1: ((7.0,),)})
    h = compute_h(model, spec)
    return model, value_iterate(model, h, n_max=2, eps=0.01)


@pytest.mark.parametrize("n0", [0, 1, 2])
@pytest.mark.parametrize("name", ["rm1", "region_split"])
def test_joint_law_counts_tally_the_scalar_first_steps(rm1, rm1_table, region_split, name, n0):
    """The lockstep engine's first-step record gives the counts that the
    scalar step core gives, replicate for replicate."""
    if name == "rm1":
        model, table, x0, replicates = rm1, rm1_table, as_state(1, 2.0), 3000
    else:
        (model, table), x0, replicates = region_split, as_state(1, 7.0), 300
    report = check_joint_law(x0, n0, table, model, replicates=replicates, seed=60 + n0)
    tally = _first_step_tally(model, table, x0, n0, 60 + n0, replicates)
    assert {r.name: r.count for r in report.rows} == \
        {r.name: tally[r.name] for r in report.rows}
    assert {row for row, count in tally.items() if count} <= {r.name for r in report.rows}


# ---------------------------------------------------------------------------
# Markov property of intervention times


def test_markov_check_deterministic_variant(rm1_zero_intensity, zero_intensity_table):
    table, _h = zero_intensity_table
    report = check_intervention_markov(as_state(1, 5.0), 2, table,
                                       rm1_zero_intensity, replicates=400, seed=8)
    assert report.passed
    assert report.groups  # at least one populated comparison


def test_markov_check_rm1_budget_two(rm1, rm1_table):
    report = check_intervention_markov(as_state(1, 2.0), 2, rm1_table, rm1,
                                       replicates=3000, seed=9, i=1)
    assert report.passed
    labels = [g.label for g in report.groups]
    assert any("natural-first" in label for label in labels)


def test_markov_check_rm1_budget_three_second_intervention(rm1, rm1_table):
    """A restart check that can fail: from (1, 2.0) at N0 = 3 both first
    transitions (a natural jump, an intervention) leave budget 2, and the
    shifted second intervention time varies within each group."""
    x0, n0, seed, replicates = as_state(1, 2.0), 3, 9, 3000
    report = check_intervention_markov(x0, n0, rm1_table, rm1,
                                       replicates=replicates, seed=seed, i=2)
    assert report.passed
    assert len(report.groups) >= 2
    costs = lockstep_costs(rm1, rm1_table, x0, n0, 0.0, seed, replicates)
    first = costs.first
    shifted = costs.tau[:, 1] - first["sojourn"]
    labels = np.array([
        f"{'intervention' if hit else 'natural'}-first->mode{mode},budget{budget}"
        for hit, mode, budget in zip(first["intervened"].tolist(),
                                     first["post_mode"].tolist(),
                                     first["post_budget"].tolist())
    ])
    for group in report.groups:
        sample = shifted[labels == group.label]
        assert sample.size == group.n_observed
        assert np.unique(sample).size > 1, group.label


def test_markov_check_budget_one_second_intervention_never_happens(rm1, rm1_table):
    for rep in range(100):
        rng = np.random.default_rng([444, rep])
        traj = simulate_controlled(as_state(1, 2.0), 1, rm1_table, rm1, rng)
        assert traj.tau(2) == math.inf
    report = check_intervention_markov(as_state(1, 2.0), 1, rm1_table, rm1,
                                       replicates=400, seed=10, i=2)
    assert report.passed


# ---------------------------------------------------------------------------
# Start-point checks


class _UnusedStream:
    """Generator stand-in that fails the test if a path draws from it."""

    def random(self):
        raise AssertionError("a path ran before the start point was checked")


@pytest.mark.parametrize("x0", [
    as_state(3, 2.0),                 # undeclared mode
    StatePoint(1, (2.0, 3.0)),        # wrong dimension
    as_state(1, 12.0),                # outside the region
    as_state(1, 10.0),                # on the boundary
])
def test_bad_start_point_rejected_before_any_path(rm1, rm1_table, x0):
    horizon = default_horizon(rm1)
    for n0 in (0, 1):
        with pytest.raises(DomainError):
            simulate_controlled(x0, n0, rm1_table, rm1, _UnusedStream())
        with pytest.raises(DomainError):
            estimate_cost_J(x0, n0, rm1_table, rm1, replicates=10, seed=0)
    with pytest.raises(DomainError):
        simulate_uncontrolled(rm1, x0, horizon, _UnusedStream())
    with pytest.raises(DomainError):
        check_joint_law(x0, 1, rm1_table, rm1, replicates=100, seed=0)


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
def test_bad_horizon_rejected_before_any_path(rm1, rm1_table, horizon):
    # A negative horizon once gave a cost; NaN and inf ran every path to
    # MAX_JUMPS.
    x0 = as_state(1, 2.0)
    for n0 in (0, 1):
        with pytest.raises(DomainError, match="horizon"):
            simulate_controlled(x0, n0, rm1_table, rm1, _UnusedStream(), horizon=horizon)
        with pytest.raises(DomainError, match="horizon"):
            estimate_cost_J(x0, n0, rm1_table, rm1, replicates=10, seed=0, horizon=horizon)
    with pytest.raises(DomainError, match="horizon"):
        simulate_uncontrolled(rm1, x0, horizon, _UnusedStream())


def test_horizon_zero_runs_only_under_control(rm1, rm1_table):
    x0 = as_state(1, 2.0)
    with pytest.raises(DomainError, match="horizon must be positive"):
        simulate_uncontrolled(rm1, x0, 0.0, _UnusedStream())
    est = estimate_cost_J(x0, 1, rm1_table, rm1, replicates=10, seed=0, horizon=0.0)
    assert est.running_mean == 0.0
    assert sum(est.intervention_counts.values()) == 10


# ---------------------------------------------------------------------------
# First-transition law beyond constant intensity and a single kernel entry


def test_joint_law_affine_intensity_region_split_kernel():
    """Interior atom masses come from the region-split kernel claim; the
    sampler must pick atoms with the same hazard-weighted frequencies."""
    doc = rm1_doc()
    doc["intensity"] = {"1": "0.1 + 0.05*zeta[0]", "2": "1.0"}
    doc["intensity_bound"] = 1.0
    doc["kernel"] = [
        {"from_mode": 1, "region": [[0.0, 5.0]],
         "atoms": [{"mode": 2, "zeta": ["5.0"], "prob": 0.3},
                   {"mode": 2, "zeta": ["7.0"], "prob": 0.7}]},
        {"from_mode": 1, "region": [[5.0, 10.0]],
         "atoms": [{"mode": 2, "zeta": ["3.0"], "prob": 0.6},
                   {"mode": 2, "zeta": ["8.0"], "prob": 0.4}]},
    ] + [e for e in doc["kernel"] if e["from_mode"] == 2]
    model = load_model(doc)
    h = compute_h(model, GridSpec(density=60, extra_points={1: ((7.0,),)}))
    table = value_iterate(model, h, n_max=1, eps=0.01)
    x0 = as_state(1, 7.0)  # the flow crosses the kernel split at 5.0
    for n0, seed in ((0, 11), (1, 12)):
        report = check_joint_law(x0, n0, table, model, replicates=5000, seed=seed)
        names = {r.name for r in report.rows}
        assert {"interior_atom_0", "interior_atom_1"} <= names
        assert report.max_abs_dev < 4.0
