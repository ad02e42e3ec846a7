import math

import numpy as np
import pytest

from pdmp_impulse.dynamics import hit_time, sample_post_jump, sample_sojourn
from pdmp_impulse.errors import ModelParseError
from pdmp_impulse.model import as_state, load_model
from pdmp_impulse.operators import (
    BRANCH_INTERVENE,
    BRANCH_WAIT,
    ConstantEvaluable,
    FunctionEvaluable,
    MinRelocationValue,
    inf_J,
    op_F,
    op_J,
    op_K,
    op_Lscript,
    op_M,
    op_Qw,
)

from conftest import rm1_doc
from oracle import FlowProfile, JCurve


def constant_rate_F(f, alpha, lam, t, t_star):
    """Closed form for the discounted running-cost integral, constant rates."""
    cap = min(t, t_star)
    return f * (1.0 - math.exp(-(alpha + lam) * cap)) / (alpha + lam)


# ---------------------------------------------------------------------------
# F


def test_F_infinite_time_closed_form(rm1):
    got = op_F(rm1, as_state(1, 2.0), math.inf)
    assert got == pytest.approx(constant_rate_F(1.0, 0.5, 0.5, math.inf, 2.0), rel=1e-9)
    assert got == pytest.approx(1.0 - math.exp(-2.0), rel=1e-9)


def test_F_zero_time(rm1):
    assert op_F(rm1, as_state(1, 2.0), 0.0) == 0.0


def test_F_mode2_closed_form(rm1):
    got = op_F(rm1, as_state(2, 4.0), 1.0)
    assert got == pytest.approx(constant_rate_F(5.0, 0.5, 1.0, 1.0, 2.0), rel=1e-9)


def test_F_nondecreasing_in_t(rm1):
    x = as_state(1, 3.0)
    values = [op_F(rm1, x, t) for t in (0.0, 0.5, 1.5, 3.0, math.inf)]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# Qw


def test_Qw_probability_normalization(rm1):
    assert op_Qw(rm1, ConstantEvaluable(1.0), as_state(1, 1.5)) == 1.0


def test_Qw_mode_indicator(rm1):
    ind = FunctionEvaluable(lambda p: 1.0 if p.mode == 2 else 0.0)
    assert op_Qw(rm1, ind, as_state(1, 7.0)) == 1.0


def test_Qw_position_at_boundary_prejump(rm1):
    pos = FunctionEvaluable(lambda p: p.zeta[0])
    assert op_Qw(rm1, pos, as_state(2, 0.0)) == 5.0


# ---------------------------------------------------------------------------
# K


def test_K_of_zero_equals_F_at_tstar(rm1):
    x = as_state(1, 2.0)
    assert op_K(rm1, ConstantEvaluable(0.0), x) == pytest.approx(
        op_F(rm1, x, math.inf), rel=1e-10
    )


def test_K_constant_shift_matches_mc_jump_discount(rm1):
    x = as_state(1, 2.0)
    c = 2.5
    k0 = op_K(rm1, ConstantEvaluable(0.0), x)
    kc = op_K(rm1, ConstantEvaluable(c), x)
    n = 20_000
    rng = np.random.default_rng(31)
    discounts = np.empty(n)
    for i in range(n):
        s, _hit = sample_sojourn(rm1, x, rng.random())
        discounts[i] = math.exp(-rm1.discount * s)
    mc = discounts.mean()
    se = discounts.std(ddof=1) / math.sqrt(n)
    assert (kc - k0) / c == pytest.approx(mc, abs=4 * se)


def test_K_zero_everything_is_zero(rm1_zero_running):
    assert op_K(rm1_zero_running, ConstantEvaluable(0.0), as_state(1, 2.0)) == 0.0


# ---------------------------------------------------------------------------
# M


def test_M_tie_breaks_to_lowest_index(rm1):
    value, idx = op_M(rm1, [0.0, 0.0], as_state(1, 2.0))
    assert (value, idx) == (1.0, 0)


def test_M_direct_arithmetic(rm1):
    value, idx = op_M(rm1, [0.2, 0.1], as_state(1, 2.0))
    assert value == pytest.approx(1.1)
    assert idx == 1


def test_M_infinite_sentinel_excluded(rm1):
    value, idx = op_M(rm1, [math.inf, 0.3], as_state(1, 2.0))
    assert value == pytest.approx(1.3)
    assert idx == 1


# ---------------------------------------------------------------------------
# J


def test_J_at_zero_returns_stop_value(rm1, rm1_h):
    x = as_state(1, 2.0)
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    assert op_J(rm1, reloc, rm1_h, x, 0.0) == pytest.approx(reloc.eval(x), rel=1e-12)


def test_J_zero_functions_reduces_to_F(rm1):
    x = as_state(2, 4.0)
    zero = ConstantEvaluable(0.0)
    for t in (0.5, 1.0, 3.0):
        assert op_J(rm1, zero, zero, x, t) == pytest.approx(op_F(rm1, x, t), rel=1e-10)


def test_J_constant_past_hit_time(rm1, rm1_h):
    x = as_state(1, 2.0)
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    ts = hit_time(rm1, x)
    ref = op_J(rm1, reloc, rm1_h, x, ts)
    assert op_J(rm1, reloc, rm1_h, x, 5 * ts) == pytest.approx(ref, rel=1e-12)
    assert op_J(rm1, reloc, rm1_h, x, math.inf) == pytest.approx(ref, rel=1e-12)


def test_J_matches_mc_expectation_form(rm1, rm1_h):
    """Monte Carlo oracle for the expectation decomposition of J."""
    x = as_state(1, 2.0)
    t = 1.0
    alpha = rm1.discount
    ts = hit_time(rm1, x)
    cap = min(t, ts)
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    stop_pos = as_state(1, 2.0 - cap)
    stop_value = reloc.eval(stop_pos)
    n = 40_000
    rng = np.random.default_rng(77)
    samples = np.empty(n)
    for i in range(n):
        s, _hit = sample_sojourn(rm1, x, rng.random())
        if s >= cap:
            samples[i] = math.exp(-alpha * cap) * stop_value
        else:
            pre = as_state(1, 2.0 - s)
            z1 = sample_post_jump(rm1, pre, rng.random())
            samples[i] = math.exp(-alpha * s) * rm1_h.eval(z1)
    mc = op_F(rm1, x, t) + samples.mean()
    se = samples.std(ddof=1) / math.sqrt(n)
    direct = op_J(rm1, reloc, rm1_h, x, t)
    assert direct == pytest.approx(mc, abs=4 * se)


# ---------------------------------------------------------------------------
# inf over time and the threshold time


def test_inf_J_zero_cost_model_trivial(rm1_zero_running):
    zero = ConstantEvaluable(0.0)
    res = inf_J(rm1_zero_running, zero, zero, as_state(1, 2.0), eps=0.01)
    assert res.inf_value == pytest.approx(0.0, abs=1e-14)
    assert res.r_eps == 0.0


def test_inf_J_increasing_curve_gives_zero_threshold(rm1, rm1_h):
    # Mode 2 near the atom: intervening immediately is the minimum.
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    res = inf_J(rm1, reloc, rm1_h, as_state(2, 5.0), eps=0.01)
    assert res.r_eps == 0.0
    assert res.inf_value == pytest.approx(reloc.eval(as_state(2, 5.0)), rel=1e-9)


def test_inf_J_matches_dense_grid_oracle(rm1, rm1_h):
    x = as_state(1, 2.0)
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    res = inf_J(rm1, reloc, rm1_h, x, eps=0.01)
    dense = JCurve(FlowProfile(rm1, x, n_t=100_001), reloc, rm1_h)
    oracle = float(dense.values.min())
    assert res.inf_value == pytest.approx(oracle, abs=1e-4)
    assert 0.0 <= res.r_eps <= hit_time(rm1, x)
    # Defining property of the threshold time.
    assert dense.at(res.r_eps) < res.inf_value + 0.01
    # Earlier times are not in the band (checked on the dense grid).
    before = dense.values[dense.tgrid < res.r_eps - 1e-4]
    assert (before >= res.inf_value + 0.01 - 1e-6).all()


def test_threshold_time_respects_strict_inequality(rm1, rm1_h):
    for zeta in (1.0, 2.0, 5.0, 8.0):
        x = as_state(1, zeta)
        phi = [rm1_h.eval(y) for y in rm1.control_set]
        reloc = MinRelocationValue(rm1, phi)
        res = inf_J(rm1, reloc, rm1_h, x, eps=0.01)
        got = op_J(rm1, reloc, rm1_h, x, res.r_eps)
        assert got < res.inf_value + 0.01 + 1e-9


# ---------------------------------------------------------------------------
# Single jump-or-intervention step


def test_Lscript_zero_cost_waits(rm1_zero_running):
    res = op_Lscript(rm1_zero_running, ConstantEvaluable(0.0), as_state(1, 2.0), 0.01)
    assert res.branch == BRANCH_WAIT
    assert res.value == pytest.approx(0.0, abs=1e-14)
    assert res.detail.inf_value > 0.0  # any intervention costs at least c0


def test_Lscript_matches_tiny_eps_dense_oracle(rm1, rm1_h):
    x = as_state(1, 2.0)
    eps = 0.01
    res = op_Lscript(rm1, rm1_h, x, eps)
    # Oracle: dense grid, tiny eps.
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    profile = FlowProfile(rm1, x, n_t=20_001)
    dense = JCurve(profile, reloc, rm1_h)
    inf_oracle = float(dense.values.min())
    wait_oracle = profile.wait_value(rm1_h)
    branch_oracle = BRANCH_WAIT if wait_oracle < inf_oracle else BRANCH_INTERVENE
    value_oracle = wait_oracle if branch_oracle == BRANCH_WAIT else inf_oracle
    assert res.branch == branch_oracle
    assert abs(res.value - value_oracle) <= eps + 1e-4


def test_Lscript_deterministic(rm1, rm1_h):
    x = as_state(2, 4.0)
    a = op_Lscript(rm1, rm1_h, x, 0.01)
    b = op_Lscript(rm1, rm1_h, x, 0.01)
    assert (a.value, a.branch, a.detail.r_eps) == (b.value, b.branch, b.detail.r_eps)


# ---------------------------------------------------------------------------
# Properties: monotonicity, continuity, boundary consistency


def _random_store(rm1, rm1_h, rng, scale=4.0):
    from pdmp_impulse.valuefn import FunctionStore

    values = {
        m: rng.random(rm1_h.values[m].shape) * scale for m in rm1_h.values
    }
    return FunctionStore(rm1_h.axes, values, rm1_h.coverage)


def test_operator_monotonicity_sandwich(rm1, rm1_h):
    from pdmp_impulse.valuefn import FunctionStore

    rng = np.random.default_rng(404)
    beta = 0.35
    xs = [as_state(1, 2.0), as_state(2, 4.0), as_state(1, 7.5)]
    for _ in range(10):
        w = _random_store(rm1, rm1_h, rng)
        bump = {m: rng.random(w.values[m].shape) * beta for m in w.values}
        w_up = FunctionStore(w.axes, {m: w.values[m] + bump[m] for m in w.values},
                             w.coverage)
        for x in xs:
            k_lo = op_K(rm1, w, x)
            k_hi = op_K(rm1, w_up, x)
            assert k_lo - 1e-8 <= k_hi <= k_lo + beta + 1e-8
            phi_lo = [w.eval(y) for y in rm1.control_set]
            phi_hi = [w_up.eval(y) for y in rm1.control_set]
            v_lo = MinRelocationValue(rm1, phi_lo)
            v_hi = MinRelocationValue(rm1, phi_hi)
            for t in (0.3, 1.2):
                j_lo = op_J(rm1, v_lo, w, x, t)
                j_hi = op_J(rm1, v_hi, w_up, x, t)
                assert j_lo - 1e-8 <= j_hi <= j_lo + beta + 1e-8


def test_J_curve_continuity_refinement(rm1, rm1_h):
    x = as_state(1, 2.0)
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    coarse = JCurve(FlowProfile(rm1, x, n_t=512), reloc, rm1_h)
    fine = JCurve(FlowProfile(rm1, x, n_t=1024), reloc, rm1_h)
    dt_coarse = coarse.tgrid[1] - coarse.tgrid[0]
    dt_fine = fine.tgrid[1] - fine.tgrid[0]
    slope = float(np.max(np.abs(np.diff(coarse.values)))) / dt_coarse
    max_fine_step = float(np.max(np.abs(np.diff(fine.values))))
    assert max_fine_step <= 1.5 * slope * dt_fine + 1e-12


def test_K_equals_J_with_boundary_kernel_value(rm1, rm1_h):
    for x in (as_state(1, 2.0), as_state(2, 4.0), as_state(1, 8.5)):
        ts = hit_time(rm1, x)
        v = FunctionEvaluable(lambda p: op_Qw(rm1, rm1_h, p))
        lhs = op_K(rm1, rm1_h, x)
        rhs = op_J(rm1, v, rm1_h, x, ts)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_profile_grid_values_match_adaptive_quadrature(rm1, rm1_h):
    """Two quadrature routes (panel grid vs adaptive) agree on the curve."""
    x = as_state(1, 2.0)
    phi = [rm1_h.eval(y) for y in rm1.control_set]
    reloc = MinRelocationValue(rm1, phi)
    curve = JCurve(FlowProfile(rm1, x, n_t=512), reloc, rm1_h)
    for idx in (0, 100, 300, 511):
        t = float(curve.tgrid[idx])
        assert float(curve.values[idx]) == pytest.approx(
            op_J(rm1, reloc, rm1_h, x, t), abs=1e-9
        )


BAD_EPS = [math.nan, math.inf, -math.inf, 0.0, -0.01]


@pytest.mark.parametrize("eps", BAD_EPS)
def test_inf_J_rejects_bad_eps(rm1, eps):
    one, zero = ConstantEvaluable(1.0), ConstantEvaluable(0.0)
    with pytest.raises(ModelParseError, match="eps"):
        inf_J(rm1, one, zero, as_state(1, 2.0), eps=eps)


def test_op_M_with_no_finite_restart_takes_the_first_index(rm1):
    assert op_M(rm1, [math.inf, math.inf], as_state(1, 2.0)) == (math.inf, 0)


@pytest.mark.parametrize("eps", BAD_EPS)
def test_Lscript_rejects_bad_eps(rm1, eps):
    with pytest.raises(ModelParseError, match="eps"):
        op_Lscript(rm1, ConstantEvaluable(0.0), as_state(1, 2.0), eps)
