"""Two-dimensional model: exercises the general-d code paths end to end."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pdmp_impulse.controlled import (
    INTERVENTION,
    AugmentedState,
    aug_step,
    estimate_cost_J,
    simulate_controlled,
)
from pdmp_impulse.dynamics import (
    cumulative_intensity,
    default_horizon,
    flow_at,
    hit_time,
    simulate_uncontrolled,
)
from pdmp_impulse.errors import DomainError
from pdmp_impulse.model import StatePoint, as_state, load_model, validate_model
from pdmp_impulse.operators import ConstantEvaluable, op_F, op_K
from pdmp_impulse.valuefn import GridSpec, compute_h, policy_query, value_iterate

from conftest import planar_doc, rm1_doc
from oracle import running_at


@pytest.fixture(scope="module")
def planar_model():
    return load_model(planar_doc())


def test_planar_model_validates(planar_model):
    report = validate_model(planar_model, grid_density=8, rng_seed=2)
    assert report.passed


def test_planar_flow_and_hit_time(planar_model):
    x = as_state(1, (3.0, 2.0))
    # First exit through whichever axis reaches its lower bound first.
    assert hit_time(planar_model, x) == pytest.approx(min(3.0 / 1.0, 2.0 / 0.5))
    point, hit = flow_at(planar_model, x, 1.0)
    assert point.zeta == (2.0, 1.5)
    assert not hit
    assert cumulative_intensity(planar_model, x, 2.0) == pytest.approx(0.6)


def test_planar_operators(planar_model):
    x = as_state(1, (3.0, 4.0))
    ts = hit_time(planar_model, x)
    expect = 0.7 * (1.0 - math.exp(-0.8 * ts)) / 0.8
    assert op_F(planar_model, x, math.inf) == pytest.approx(expect, rel=1e-9)
    assert op_K(planar_model, ConstantEvaluable(0.0), x) == pytest.approx(
        expect, rel=1e-9
    )


def test_planar_value_pipeline_and_simulation(planar_model):
    x0 = as_state(1, (3.0, 4.0))
    spec = GridSpec(density=12, extra_points={1: ((3.0, 4.0),)})
    h = compute_h(planar_model, spec)
    # Cross-check h by Monte Carlo at the pinned start point.
    n = 4000
    horizon = default_horizon(planar_model)
    costs = np.empty(n)
    for rep in range(n):
        rng = np.random.default_rng([640, rep])
        costs[rep] = simulate_uncontrolled(
            planar_model, x0, horizon, rng, collect_events=False
        ).discounted_running_cost
    se = costs.std(ddof=1) / math.sqrt(n)
    # Constant running cost makes paths deterministic (se ~ 0); allow the
    # documented 1e-6 horizon-truncation tail on top of the MC band.
    assert abs(costs.mean() - h.eval(x0)) < 5 * se + 2e-6

    table = value_iterate(planar_model, h, n_max=1, eps=0.02)
    res = policy_query(table, x0, 1, model=planar_model)
    assert res.branch in ("wait", "intervene")
    est = estimate_cost_J(x0, 1, table, planar_model, replicates=4000, seed=9)
    assert abs(est.mean - table.value(1, x0)) < 5 * est.std_error + 2e-6
    traj = simulate_controlled(x0, 1, table, planar_model,
                               np.random.default_rng(3))
    assert traj.events


def test_nonconstant_running_cost_segments():
    """Reconstruct a path's discounted cost by quadrature over its events."""
    doc = rm1_doc()
    doc["costs"]["running"] = {"1": "0.1*zeta[0]", "2": "5.0"}
    doc["costs"]["running_bound"] = 5.0
    model = load_model(doc)
    horizon = 9.0
    rng = np.random.default_rng(2024)
    rec = simulate_uncontrolled(model, as_state(1, 7.0), horizon, rng)
    alpha = model.discount

    def segment(mode, z0, start, length):
        def integrand(s):
            pos = np.asarray(model.flow.position(mode, np.asarray(z0), s))
            return math.exp(-alpha * s) * running_at(model, mode, pos)

        value, _ = quad(integrand, 0.0, length, epsabs=1e-12, epsrel=1e-10)
        return math.exp(-alpha * start) * value

    total = 0.0
    current = rec.start
    clock = 0.0
    for event in rec.events:
        total += segment(current.mode, current.zeta, clock, event.sojourn)
        current = event.post_jump
        clock = event.time
    total += segment(current.mode, current.zeta, clock, horizon - clock)
    assert rec.discounted_running_cost == pytest.approx(total, abs=1e-9)


def _planar_variant(planar_model, running: str, density: int):
    doc = dict(planar_model.doc)
    doc["costs"] = dict(doc["costs"], running={"1": running}, running_bound=2.2)
    model = load_model(doc)
    spec = GridSpec(density=density, extra_points={1: ((3.0, 4.0),)})
    h = compute_h(model, spec)
    return model, value_iterate(model, h, n_max=1, eps=0.02)


@pytest.fixture(scope="module")
def intervening_planar(planar_model):
    """Running cost falling along the flow: about a third of the nodes
    relocate at once (r = 0)."""
    return _planar_variant(planar_model, "0.2 + 0.5*zeta[0]", 24)


@pytest.fixture(scope="module")
def delayed_intervening_planar(planar_model):
    """Running cost rising along the flow: many nodes plan a relocation
    after a positive time."""
    return _planar_variant(planar_model, "2.2 - 0.5*zeta[0]", 12)


def test_planar_intervening_policy_cost_identity(intervening_planar):
    model, table = intervening_planar
    assert 0 < int((~table.stages[0].wait[1]).sum()) < table.stages[0].wait[1].size
    x0 = as_state(1, (3.0, 4.0))
    est = estimate_cost_J(x0, 1, table, model, replicates=4000, seed=9)
    assert abs(est.mean - table.value(1, x0)) < 4 * est.std_error + 2e-6


@pytest.mark.parametrize("variant", ["intervening_planar", "delayed_intervening_planar"])
def test_planar_intervention_time_is_policy_query_r(request, variant):
    """Off-node steps intervene exactly at the time policy_query reports."""
    model, table = request.getfixturevalue(variant)
    rng = np.random.default_rng(2401)
    sojourns = []
    for _ in range(60):
        zeta = (0.1 + 3.8 * rng.random(), 0.1 + 5.8 * rng.random())
        res = policy_query(table, as_state(1, zeta), 1, model=model)
        for rep in range(5):
            _post, event = aug_step(AugmentedState(1, zeta, 1, 0.0), table, model,
                                    np.random.default_rng([2402, rep]))
            if event.kind == INTERVENTION:
                sojourns.append(event.sojourn)
                assert event.sojourn == res.r
    assert sojourns
    if variant == "delayed_intervening_planar":
        assert max(sojourns) > 0.0


@pytest.mark.parametrize("x0", [
    StatePoint(2, (3.0, 4.0)),        # undeclared mode
    StatePoint(1, (3.0,)),            # wrong dimension
    StatePoint(1, (3.0, 4.0, 1.0)),   # wrong dimension
    StatePoint(1, (5.0, 4.0)),        # outside the region
    StatePoint(1, (0.0, 4.0)),        # on the boundary
])
def test_planar_bad_start_point_rejected(planar_model, x0):
    spec = GridSpec(density=6)
    h = compute_h(planar_model, spec)
    table = value_iterate(planar_model, h, n_max=1, eps=0.02)
    for n0 in (0, 1):
        with pytest.raises(DomainError):
            estimate_cost_J(x0, n0, table, planar_model, replicates=10, seed=0)
    with pytest.raises(DomainError):
        simulate_uncontrolled(planar_model, x0, default_horizon(planar_model),
                              np.random.default_rng(0))
