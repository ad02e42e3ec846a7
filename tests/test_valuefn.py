import math

import numpy as np
import pytest

from pdmp_impulse import valuefn
from pdmp_impulse.artifact import load_policy, save_policy
from pdmp_impulse.dynamics import hit_time
from pdmp_impulse.errors import (
    ExtrapolationError,
    ModelParseError,
    NumericalError,
    PolicyCoverageError,
    ResourceBudgetError,
)
from pdmp_impulse.model import StatePoint, as_state
from pdmp_impulse.operators import BRANCH_INTERVENE, BRANCH_WAIT, op_K
from pdmp_impulse.valuefn import (
    BRANCH_NONE,
    FunctionStore,
    GridSpec,
    compute_h,
    eval_Vk_exact,
    policy_query,
    value_iterate,
)

from conftest import FEATURE_MODELS, PINNED, feature_model


def hand_h_at_atoms():
    """2x2 linear system for the no-impulse cost at the two kernel atoms."""
    e5, e375 = math.exp(-5.0), math.exp(-3.75)
    a = np.array([[1.0, -(0.5 * (1 - e5) + e5)],
                  [-((1 - e375) / 1.5 + e375), 1.0]])
    b = np.array([1.0 - e5, 5.0 * (1 - e375) / 1.5])
    h15, h25 = np.linalg.solve(a, b)
    return float(h15), float(h25)


# ---------------------------------------------------------------------------
# Grid construction and interpolation


def test_grid_pins_control_points_atoms_and_extras(rm1):
    axes = GridSpec(density=200, extra_points=PINNED).build_axes(rm1)
    for pinned in (8.0, 3.0, 5.0, 2.0, 7.0):
        assert pinned in axes[1][0]
    for pinned in (5.0, 4.0, 6.0):
        assert pinned in axes[2][0]
    assert len(axes[1][0]) >= 200
    assert axes[1][0][0] > 0.0 and axes[1][0][-1] < 10.0


def test_function_store_interpolation():
    axes = {1: (np.array([0.0, 1.0, 2.0]),)}
    values = {1: np.array([0.0, 2.0, 6.0])}
    store = FunctionStore(axes, values, {1: ((-0.5,), (2.5,))})
    assert store.eval(as_state(1, 1.0)) == 2.0
    assert store.eval(as_state(1, 0.5)) == 1.0
    assert store.eval(as_state(1, 1.5)) == 4.0
    # Linear extrapolation inside the declared coverage margin.
    assert store.eval(as_state(1, 2.25)) == pytest.approx(7.0)
    with pytest.raises(ExtrapolationError):
        store.eval(as_state(1, 3.5))
    with pytest.raises(ExtrapolationError):
        store.eval(as_state(2, 1.0))


def test_one_coverage_check_rejects_nan_with_plain_floats(rm1_table):
    """Values and the policy share one coverage test: a NaN coordinate is
    outside, and the message prints the query as plain floats."""
    h = rm1_table.h
    rows = np.array([[2.0], [math.nan]])
    nan_query = r"query \(mode=1, zeta=\(nan,\)\) outside grid coverage"
    with pytest.raises(ExtrapolationError, match=nan_query):
        h.eval(StatePoint(1, (math.nan,)))
    with pytest.raises(ExtrapolationError, match=nan_query):
        h.eval_many(1, rows)
    with pytest.raises(ExtrapolationError, match=nan_query):
        rm1_table.lookup_many(1, rows, 1)
    with pytest.raises(ExtrapolationError, match=r"zeta=\(11\.0,\)"):
        rm1_table.lookup_many(1, np.array([[2.0], [11.0]]), np.array([1, 2]))
    with pytest.raises(ExtrapolationError, match="mode 3 not covered"):
        rm1_table.lookup_many(3, rows[:1], 1)


def test_function_store_rejects_non_finite():
    axes = {1: (np.array([0.0, 1.0]),)}
    with pytest.raises(NumericalError):
        FunctionStore(axes, {1: np.array([0.0, np.nan])}, {1: ((0.0,), (1.0,))})


# ---------------------------------------------------------------------------
# No-impulse cost


def test_h_zero_for_zero_running_cost(rm1_zero_running):
    h = compute_h(rm1_zero_running, GridSpec(density=40))
    assert all(np.all(v == 0.0) for v in h.values.values())


def test_h_matches_hand_linear_system(rm1, rm1_h):
    h15, h25 = hand_h_at_atoms()
    assert rm1_h.eval(as_state(1, 5.0)) == pytest.approx(h15, abs=2e-6)
    assert rm1_h.eval(as_state(2, 5.0)) == pytest.approx(h25, abs=2e-6)
    # Closed-form propagation away from the atom.
    h12 = (1 + 0.5 * h25) * (1 - math.exp(-2.0)) + math.exp(-2.0) * h25
    assert rm1_h.eval(as_state(1, 2.0)) == pytest.approx(h12, abs=2e-6)


def test_h_is_fixed_point_of_waiting_operator(rm1, rm1_h):
    sup_h = max(float(np.max(np.abs(v))) for v in rm1_h.values.values())
    for x in (as_state(1, 2.0), as_state(1, 7.0), as_state(2, 4.0), as_state(2, 6.0)):
        residual = abs(op_K(rm1, rm1_h, x) - rm1_h.eval(x))
        assert residual <= 1e-6 * (1.0 + sup_h)


@pytest.mark.parametrize("name", FEATURE_MODELS)
def test_h_solves_the_grid_system(name):
    """h solves its grid system (I - B) h = F to rounding."""
    model, density = feature_model(name)
    h = compute_h(model, GridSpec(density=density))
    h_vec = np.concatenate([h.values[m].ravel() for m in model.mode_ids])
    residual = float(np.max(np.abs(h.operator.apply(h_vec) - h_vec)))
    assert residual <= 1e-13 * (1.0 + float(np.max(np.abs(h_vec))))


def test_h_matches_geometric_series_oracle(cycle_model):
    """Deterministic cycle: independent oracle sums the discounted cycle costs."""
    h = compute_h(cycle_model, GridSpec(density=120))
    alpha, f0, cycle = 0.5, 2.0, 5.0
    per_cycle = f0 * (1.0 - math.exp(-alpha * cycle)) / alpha
    series = sum(math.exp(-alpha * cycle * n) * per_cycle for n in range(200))
    for zeta in (1.0, 5.0, 9.0):
        first_leg = f0 * (1.0 - math.exp(-alpha * zeta)) / alpha
        oracle = first_leg + math.exp(-alpha * zeta) * series
        assert h.eval(as_state(1, zeta)) == pytest.approx(oracle, abs=1e-6)


# ---------------------------------------------------------------------------
# Value iteration


def test_zero_running_cost_all_wait(zero_running_table):
    table, _h = zero_running_table
    for stage in table.stages:
        for m in stage.wait:
            assert stage.wait[m].all()
            assert np.all(stage.value[m] == 0.0)


def test_stage_one_improvement_bound(rm1, rm1_h, rm1_table):
    # One budget level cannot raise the cost by more than eps plus numerics.
    for m in (1, 2):
        v1 = rm1_table.stages[0].value[m]
        v0 = rm1_h.values[m]
        assert np.all(v1 <= v0 + 0.01 + 1e-3)
        assert np.all(v1 >= 0.0)


def test_monotone_improvement_chain(rm1_table, rm1_h):
    eps = rm1_table.eps
    for k in range(1, 4):
        for m in (1, 2):
            vk = rm1_table.stages[k - 1].value[m]
            prev = rm1_h.values[m] if k == 1 else rm1_table.stages[k - 2].value[m]
            assert np.all(vk <= prev + k * eps + 1e-3)


def test_value_bounds(rm1, rm1_table):
    crude = rm1.costs.running_bound / rm1.discount
    for k, stage in enumerate(rm1_table.stages, start=1):
        for m in stage.value:
            assert np.all(stage.value[m] >= 0.0)
            assert np.all(stage.value[m] <= crude + k * rm1.costs.c_upper)


def test_sandwich_against_hundredth_eps(rm1, rm1_h):
    eps = 0.01
    coarse = value_iterate(rm1, rm1_h, n_max=2, eps=eps)
    fine = value_iterate(rm1, rm1_h, n_max=2, eps=eps / 100.0)
    for k in (1, 2):
        for m in (1, 2):
            diff = coarse.stages[k - 1].value[m] - fine.stages[k - 1].value[m]
            assert float(diff.min()) >= -1e-3
            assert float(diff.max()) <= k * eps + 1e-3


def test_no_intervention_node_at_boundary_time(rm1, rm1_table):
    """Strictness of the threshold time on the intervention branch."""
    for stage in rm1_table.stages:
        for m in (1, 2):
            axis = rm1_table.axes[m][0]
            t_star = np.array([hit_time(rm1, as_state(m, z)) for z in axis])
            intervene = ~stage.wait[m]
            assert not np.any(intervene & (stage.r[m] >= t_star))
            # Waiting nodes carry exactly the boundary-hit time.
            assert np.allclose(stage.r[m][stage.wait[m]],
                               t_star[stage.wait[m]], rtol=0, atol=1e-12)


def test_known_rm1_branch_structure(rm1_table):
    s1 = rm1_table.stages[0]
    assert not s1.wait[1].any()  # mode 1: relocate just before the boundary
    axis2 = rm1_table.axes[2][0]
    flip = 0.90421  # hand-computed threshold between waiting and relocating
    assert s1.wait[2][axis2 < flip - 0.06].all()
    assert not s1.wait[2][axis2 > flip + 0.06].any()


def test_stage_one_values_match_hand_formulas(rm1_table, rm1_h):
    h15, h25 = hand_h_at_atoms()
    mh = 1.0 + rm1_h.eval(as_state(1, 8.0))
    # Immediate relocation region of mode 2: value equals the relocation cost.
    assert rm1_table.value(1, as_state(2, 5.0)) == pytest.approx(mh, abs=1e-6)
    # Mode 1: descend to the band entry, value = inf + eps with inf at t*.
    a = 1.0 + 0.5 * h25
    inf_j = a + (mh - a) * math.exp(-2.0)
    got = rm1_table.value(1, as_state(1, 2.0))
    assert inf_j <= got + 1e-4
    assert got <= inf_j + 0.01 + 1e-4


# ---------------------------------------------------------------------------
# Exact recursion


def test_exact_recursion_zero_cost(rm1_zero_running):
    h = compute_h(rm1_zero_running, GridSpec(density=40))
    assert eval_Vk_exact(rm1_zero_running, h, 2, as_state(1, 2.0), 0.01) == 0.0


def test_exact_recursion_matches_grid_within_refinement(rm1, rm1_h, rm1_table):
    # Self-refinement oracle: a denser grid bounds the interpolation error.
    fine_h = compute_h(rm1, GridSpec(density=400, extra_points=PINNED))
    fine = value_iterate(rm1, fine_h, n_max=2, eps=0.01)
    for k in (1, 2):
        for x in (as_state(1, 2.0), as_state(2, 4.0)):
            coarse_val = rm1_table.value(k, x)
            fine_val = fine.value(k, x)
            refine_gap = abs(coarse_val - fine_val)
            exact = eval_Vk_exact(rm1, rm1_h, k, x, 0.01)
            assert abs(exact - coarse_val) <= 4 * refine_gap + 5e-4


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.01])
def test_exact_recursion_rejects_bad_eps(rm1, rm1_h, eps):
    with pytest.raises(ModelParseError, match="eps"):
        eval_Vk_exact(rm1, rm1_h, 1, as_state(1, 2.0), eps)


def test_exact_recursion_budget_guards(rm1, rm1_h):
    with pytest.raises(ModelParseError, match="budget k"):
        eval_Vk_exact(rm1, rm1_h, -1, as_state(1, 2.0), 0.01)
    with pytest.raises(ResourceBudgetError):
        eval_Vk_exact(rm1, rm1_h, 4, as_state(1, 2.0), 0.01)
    with pytest.raises(ResourceBudgetError):
        eval_Vk_exact(rm1, rm1_h, 2, as_state(1, 2.0), 0.01, budget=1)


# ---------------------------------------------------------------------------
# Policy queries


def test_policy_query_budget_zero(rm1, rm1_table):
    res = policy_query(rm1_table, as_state(1, 2.0), 0, model=rm1)
    assert res.r == math.inf
    assert res.y is None
    assert res.branch == BRANCH_NONE


def test_policy_query_waiting_node_returns_hit_time(rm1, rm1_table):
    x = as_state(2, 0.5)  # inside the waiting region of stage 1
    res = policy_query(rm1_table, x, 1, model=rm1)
    assert res.branch == BRANCH_WAIT
    assert res.y is None
    assert res.r == hit_time(rm1, x)


def test_policy_query_intervention_strictly_before_boundary(rm1, rm1_table):
    for x in (as_state(1, 2.0), as_state(1, 6.283), as_state(2, 5.0)):
        res = policy_query(rm1_table, x, 1, model=rm1)
        assert res.branch == BRANCH_INTERVENE
        assert res.r < hit_time(rm1, x)
        assert res.y in rm1_table.control_set


def test_policy_query_out_of_range(rm1, rm1_table):
    with pytest.raises(ExtrapolationError):
        policy_query(rm1_table, as_state(1, 11.0), 1, model=rm1)
    with pytest.raises(PolicyCoverageError):
        policy_query(rm1_table, as_state(1, 2.0), 9, model=rm1)


def test_value_iterate_rejects_bad_arguments(rm1, rm1_h):
    with pytest.raises(ModelParseError):
        value_iterate(rm1, rm1_h, n_max=0, eps=0.01)
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ModelParseError):
            value_iterate(rm1, rm1_h, n_max=1, eps=eps)


def test_one_operator_per_solve(monkeypatch, rm1):
    """compute_h assembles the grid operator; value_iterate applies it."""
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return grid_operator(*args, **kwargs)

    grid_operator = valuefn.GridOperator
    monkeypatch.setattr(valuefn, "GridOperator", counted)
    h = compute_h(rm1, GridSpec(density=20))
    value_iterate(rm1, h, n_max=2, eps=0.01)
    value_iterate(rm1, h, n_max=2, eps=0.0001)
    assert len(built) == 1


def test_value_iterate_needs_the_operator_of_compute_h(
        rm1, rm1_table, zero_running_table, tmp_path):
    path = tmp_path / "policy.pdmpval"
    save_policy(path, rm1_table)
    loaded = load_policy(path, rm1)
    assert loaded.h.operator is None and rm1_table.value_store(1).operator is None
    with pytest.raises(ModelParseError, match="no grid operator"):
        value_iterate(rm1, loaded.h, n_max=1, eps=0.01)
    _table, h_zero_running = zero_running_table
    with pytest.raises(ModelParseError, match="another model"):
        value_iterate(rm1, h_zero_running, n_max=1, eps=0.01)
