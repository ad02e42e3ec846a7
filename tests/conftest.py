import copy
import json
from pathlib import Path

import pytest

from pdmp_impulse.model import load_model
from pdmp_impulse.valuefn import GridSpec, compute_h, value_iterate

MODEL_PATH = Path(__file__).resolve().parent.parent / "models" / "rm1.json"

# Start points used across MC cross-checks; pinned as grid nodes so value
# lookups at them carry no interpolation error.
PINNED = {1: ((2.0,), (7.0,)), 2: ((4.0,), (6.0,))}


def rm1_doc() -> dict:
    return json.loads(MODEL_PATH.read_text())


def planar_doc() -> dict:
    """Two-dimensional model: one mode, constant drift toward the origin."""
    return {
        "modes": [{"id": 1, "bounds": [[0.0, 4.0], [0.0, 6.0]]}],
        "flow": {"family": "constant-drift",
                 "params": {"1": {"velocity": [-1.0, -0.5]}}},
        "intensity": {"1": "0.3"},
        "intensity_bound": 0.3,
        "kernel": [
            {"from_mode": 1, "region": None,
             "atoms": [{"mode": 1, "zeta": ["2.0", "3.0"], "prob": 1.0}]}
        ],
        "costs": {
            "running": {"1": "0.7"},
            "running_bound": 0.7,
            "intervention": {"kind": "constant", "value": 0.5},
            "intervention_bounds": [0.5, 0.5],
        },
        "control_set": [{"mode": 1, "zeta": [3.0, 5.0]},
                        {"mode": 1, "zeta": [1.0, 1.0]}],
        "discount": 0.5,
        "t_star_bound": 12.0,
    }


def feature_model(name):
    """One model per feature the recursion supports, with its grid density."""
    doc = rm1_doc()
    density = 30
    if name == "planar_intervening":
        doc = planar_doc()
        doc["costs"] = dict(doc["costs"], running={"1": "0.2 + 0.5*zeta[0]"},
                            running_bound=2.2)
        density = 8
    elif name == "affine_intensity_region_split_kernel":
        doc["intensity"] = {"1": "0.1 + 0.05*zeta[0]", "2": "1.0"}
        doc["kernel"] = [
            {"from_mode": 1, "region": [[0.0, 5.0]],
             "atoms": [{"mode": 2, "zeta": ["5.0"], "prob": 0.3},
                       {"mode": 2, "zeta": ["7.0"], "prob": 0.7}]},
            {"from_mode": 1, "region": [[5.0, 10.0]],
             "atoms": [{"mode": 2, "zeta": ["3.0"], "prob": 0.6},
                       {"mode": 2, "zeta": ["8.0"], "prob": 0.4}]},
            {"from_mode": 2, "region": None,
             "atoms": [{"mode": 1, "zeta": ["0.5*zeta[0] + 2.0"], "prob": 1.0}]},
        ]
    elif name == "exponential_decay":
        doc["flow"] = {"family": "exponential-decay-to-target",
                       "params": {"1": {"target": [-2.0], "rate": [0.4]},
                                  "2": {"target": [12.0], "rate": [0.3]}}}
        # A static two-atom kernel in mode 1.
        doc["kernel"][0]["atoms"] = [{"mode": 2, "zeta": ["5.0"], "prob": 0.4},
                                     {"mode": 2, "zeta": ["7.0"], "prob": 0.6}]
    elif name == "linear_decay":
        doc["flow"] = {"family": "linear-decay-to-target",
                       "params": {"1": {"target": [0.0], "rate": [1.0]},
                                  "2": {"target": [-1.0], "rate": [2.0]}}}
    elif name == "per_target_cost":
        # Control points 1 and 2 coincide: every restart there is a tie,
        # which goes to the lower index.
        doc["control_set"].append({"mode": 1, "zeta": [3.0]})
        doc["costs"]["intervention"] = {"kind": "per_target", "values": [1.3, 1.0, 1.0]}
        doc["costs"]["intervention_bounds"] = [1.0, 1.3]
    elif name == "expr_cost":
        # Distance-dependent cost: nodes restart at either control point.
        doc["costs"]["intervention"] = {"kind": "expr",
                                        "expr": "1.0 + 0.05*abs(zeta[0] - y[0])"}
        doc["costs"]["intervention_bounds"] = [1.0, 1.5]
    elif name == "zero_intensity":
        doc["intensity"] = {"1": "0.0", "2": "0.0"}
        doc["intensity_bound"] = 0.0
    elif name == "nonconstant_running":
        # Not a recursion feature of its own: a running cost that varies
        # along the flow, for the Monte Carlo engines.
        doc["costs"]["running"] = {"1": "0.1*zeta[0]", "2": "5.0"}
    else:
        assert name == "rm1"
    return load_model(doc), density


FEATURE_MODELS = ["rm1", "planar_intervening", "affine_intensity_region_split_kernel",
                  "exponential_decay", "linear_decay", "per_target_cost", "expr_cost",
                  "zero_intensity"]


@pytest.fixture(scope="session")
def rm1():
    return load_model(MODEL_PATH)


@pytest.fixture(scope="session")
def rm1_zero_running():
    doc = rm1_doc()
    doc["costs"]["running"] = {"1": "0.0", "2": "0.0"}
    doc["costs"]["running_bound"] = 0.0
    return load_model(doc)


@pytest.fixture(scope="session")
def rm1_zero_intensity():
    doc = rm1_doc()
    doc["intensity"] = {"1": "0.0", "2": "0.0"}
    doc["intensity_bound"] = 0.0
    return load_model(doc)


@pytest.fixture(scope="session")
def cycle_model():
    """Single mode, no interior jumps, constant running cost: the no-impulse
    cost is a geometric series of discounted cycle costs."""
    doc = {
        "modes": [{"id": 1, "bounds": [[0.0, 10.0]]}],
        "flow": {"family": "constant-drift", "params": {"1": {"velocity": [-1.0]}}},
        "intensity": {"1": "0.0"},
        "intensity_bound": 0.0,
        "kernel": [
            {"from_mode": 1, "region": None,
             "atoms": [{"mode": 1, "zeta": ["5.0"], "prob": 1.0}]}
        ],
        "costs": {
            "running": {"1": "2.0"},
            "running_bound": 2.0,
            "intervention": {"kind": "constant", "value": 1.0},
            "intervention_bounds": [1.0, 1.0],
        },
        "control_set": [{"mode": 1, "zeta": [8.0]}],
        "discount": 0.5,
        "t_star_bound": 10.0,
    }
    return load_model(doc)


@pytest.fixture(scope="session")
def rm1_h(rm1):
    return compute_h(rm1, GridSpec(density=200, extra_points=PINNED))


@pytest.fixture(scope="session")
def rm1_table(rm1, rm1_h):
    return value_iterate(rm1, rm1_h, n_max=3, eps=0.01)


@pytest.fixture(scope="session")
def zero_running_table(rm1_zero_running):
    h0 = compute_h(rm1_zero_running, GridSpec(density=60))
    return value_iterate(rm1_zero_running, h0, n_max=2, eps=0.01), h0


@pytest.fixture(scope="session")
def zero_intensity_table(rm1_zero_intensity):
    h0 = compute_h(rm1_zero_intensity, GridSpec(density=80))
    return value_iterate(rm1_zero_intensity, h0, n_max=2, eps=0.01), h0
