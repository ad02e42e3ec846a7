"""One path on a caller's Generator: pinned costs, and the Generator handed
back where single draws would have left it.

``one_path_golden.json`` holds the ``float.hex`` of the first 50
per-replicate costs of :func:`simulate_uncontrolled` (replicate r on
``default_rng([11, r])``) and the totals of :func:`simulate_controlled`
(``default_rng([12, r])``), recorded when every path drew its uniforms one
``rng.random()`` call at a time.  affine_intensity samples its mode-1
sojourns by Newton steps; planar_intervening runs the two-coordinate flow
maps and a running cost that varies along the flow.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pdmp_impulse import dynamics
from pdmp_impulse.controlled import AugmentedState, aug_step, simulate_controlled
from pdmp_impulse.dynamics import default_horizon, simulate_uncontrolled
from pdmp_impulse.errors import NumericalError
from pdmp_impulse.model import StatePoint, load_model
from pdmp_impulse.valuefn import GridSpec, compute_h, value_iterate

from conftest import MODEL_PATH, feature_model

GOLDEN = json.loads((Path(__file__).parent / "one_path_golden.json").read_text())
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@pytest.fixture(scope="module")
def cases(rm1, rm1_table):
    """(model, table, start, budget) of each pinned model."""
    out = {"rm1": (rm1, rm1_table, StatePoint(1, (2.0,)), 3)}
    for name, model, density, zeta in [
            ("planar_intervening", feature_model("planar_intervening")[0], 8, (3.0, 4.0)),
            ("affine_intensity", load_model(MODEL_PATH.parent / "affine_intensity.json"), 30,
             (7.0,))]:
        h = compute_h(model, GridSpec(density=density, extra_points={1: (zeta,)}))
        out[name] = (model, value_iterate(model, h, n_max=2, eps=0.01), StatePoint(1, zeta), 2)
    return out


@pytest.mark.parametrize("name", list(GOLDEN))
def test_one_path_costs_are_pinned(cases, name):
    model, table, x0, n0 = cases[name]
    horizon = default_horizon(model)
    uncontrolled = [simulate_uncontrolled(model, x0, horizon, np.random.default_rng([11, r]),
                                          collect_events=False).discounted_running_cost.hex()
                    for r in range(50)]
    controlled = [simulate_controlled(x0, n0, table, model,
                                      np.random.default_rng([12, r])).total_cost.hex()
                  for r in range(50)]
    assert uncontrolled == GOLDEN[name]["uncontrolled"]
    assert controlled == GOLDEN[name]["controlled"]


def _single_draw_twin(model, table, x0, n0, horizon, rng, steps=None):
    """The path of simulate_controlled (simulate_uncontrolled at n0 = 0) by
    aug_step, which draws each uniform by one rng.random() call: until past
    the horizon with the budget spent, or for a given number of steps."""
    state, elapsed, taken = AugmentedState(x0.mode, x0.zeta, n0, 0.0), 0.0, 0
    while True:
        state, event = aug_step(state, table, model, rng)
        elapsed += event.sojourn
        taken += 1
        if taken == steps or (steps is None and elapsed >= horizon and state.budget == 0):
            return


def _twins(bit_generator):
    """Two Generators in the same state, with a 32-bit value buffered, which
    a path's double draws must leave in place."""
    pair = [np.random.Generator(bit_generator(2024)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 1000, dtype=np.uint32)
    return pair


def _assert_same_next_draws(rng, twin):
    assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == \
        twin.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    assert rng.random(5).tolist() == twin.random(5).tolist()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("name", ["rm1", "affine_intensity"])
def test_a_path_hands_the_generator_back(cases, name, bit_generator):
    model, table, x0, n0 = cases[name]
    horizon = default_horizon(model)
    rng, twin = _twins(bit_generator)
    for _ in range(3):
        record = simulate_uncontrolled(model, x0, horizon, rng)
        _single_draw_twin(model, table, x0, 0, horizon, twin)
        assert len(record.events) > 10
        simulate_controlled(x0, n0, table, model, rng)
        _single_draw_twin(model, table, x0, n0, horizon, twin)
    _assert_same_next_draws(rng, twin)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
def test_a_path_that_raises_hands_the_generator_back(monkeypatch, rm1, bit_generator):
    """51 jumps draw 102 uniforms, so the path spans two blocks when it stops."""
    monkeypatch.setattr(dynamics, "MAX_JUMPS", 50)
    x0 = StatePoint(1, (2.0,))
    rng, twin = _twins(bit_generator)
    with pytest.raises(NumericalError, match="more than 50 jumps"):
        simulate_uncontrolled(rm1, x0, 1e6, rng, collect_events=False)
    assert 2 * 51 > dynamics.DRAW_BLOCK
    _single_draw_twin(rm1, None, x0, 0, 1e6, twin, steps=51)
    _assert_same_next_draws(rng, twin)


def test_a_path_refuses_a_random_state(rm1, rm1_table):
    """A path hands back a Generator's bit_generator state, which a legacy
    RandomState lacks: it is refused at the first draw, having drawn none."""
    x0 = StatePoint(1, (2.0,))
    rng = np.random.RandomState(2024)
    before = rng.get_state(legacy=False)
    with pytest.raises(TypeError, match="numpy Generator; got RandomState"):
        simulate_uncontrolled(rm1, x0, default_horizon(rm1), rng)
    with pytest.raises(TypeError, match="numpy Generator; got RandomState"):
        simulate_controlled(x0, 3, rm1_table, rm1, rng)
    after = rng.get_state(legacy=False)
    assert after["state"]["key"].tolist() == before["state"]["key"].tolist()
    assert after["state"]["pos"] == before["state"]["pos"]
