import json

import numpy as np
import pytest

from pdmp_impulse.errors import (
    DomainError,
    KernelCoverageError,
    ModelParseError,
    ModelValidationError,
    UnsupportedFeatureError,
)
from pdmp_impulse.model import as_state, load_model, validate_model
from pdmp_impulse.valuefn import GridSpec, compute_h, value_iterate

from conftest import MODEL_PATH, planar_doc, rm1_doc


def test_load_rm1_echoes_declared_fields(rm1):
    assert rm1.mode_ids == (1, 2)
    assert len(rm1.control_set) == 2
    assert rm1.discount == 0.5
    assert rm1.dim == 1
    assert rm1.t_star_bound == 10.0
    assert rm1.costs.c_lower == rm1.costs.c_upper == 1.0


def test_missing_discount_is_parse_error():
    doc = rm1_doc()
    del doc["discount"]
    with pytest.raises(ModelParseError, match="discount required"):
        load_model(doc)


def test_bad_probability_sum_is_validation_error():
    doc = rm1_doc()
    doc["kernel"][0]["atoms"][0]["prob"] = 0.9
    with pytest.raises(ModelValidationError, match="sum"):
        load_model(doc)


def test_unknown_flow_family_unsupported():
    doc = rm1_doc()
    doc["flow"]["family"] = "runge-kutta"
    with pytest.raises(UnsupportedFeatureError, match="runge-kutta"):
        load_model(doc)


def test_parse_errors_name_the_field():
    doc = rm1_doc()
    del doc["costs"]["running_bound"]
    with pytest.raises(ModelParseError, match="running_bound"):
        load_model(doc)
    doc = rm1_doc()
    doc["control_set"] = []
    with pytest.raises(ModelParseError, match="control_set"):
        load_model(doc)


def _set_running(doc, expr):
    doc["costs"]["running"]["1"] = expr


def _set_intensity(doc, expr):
    doc["intensity"]["2"] = expr


def _set_atom(doc, expr):
    doc["kernel"][0]["atoms"][0]["zeta"] = [expr]


def _set_intervention(doc, expr):
    doc["costs"]["intervention"] = {"kind": "expr", "expr": expr.replace("zeta", "y")}


@pytest.mark.parametrize("field, setter", [
    ("costs.running[1]", _set_running), ("intensity[2]", _set_intensity),
    ("kernel[0].atoms[0].zeta[0]", _set_atom), ("costs.intervention.expr", _set_intervention),
])
def test_subscript_past_the_dimension_is_parse_error(field, setter):
    doc = rm1_doc()
    setter(doc, "1.0 + zeta[1]")
    with pytest.raises(ModelParseError) as info:
        load_model(doc)
    assert str(info.value).startswith(field + ":") and "[1]" in str(info.value)
    doc = rm1_doc()
    setter(doc, "1.0 + zeta[0]")
    load_model(doc)


def test_load_from_json_text_and_path(tmp_path):
    doc = rm1_doc()
    by_dict = load_model(doc)
    by_text = load_model(json.dumps(doc))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    by_path = load_model(path)
    assert by_dict.content_hash == by_text.content_hash == by_path.content_hash


def test_validate_rm1_all_pass(rm1):
    report = validate_model(rm1, grid_density=50, rng_seed=1)
    assert report.passed
    names = {c.name for c in report.checks}
    assert {"exit_time_bounded", "kernel_atoms", "intervention_cost_bounds",
            "intervention_cost_triangle", "running_cost_bounds",
            "intensity_bounds", "flow_semigroup",
            "lipschitz_spot_estimates"} <= names
    # Constant intervention cost: sampled bounds collapse to the declared 1.
    assert report.estimated_constants["c_min_sampled"] == pytest.approx(1.0)
    assert report.estimated_constants["c_max_sampled"] == pytest.approx(1.0)
    json.loads(report.to_json())  # serializable


def test_validate_flags_boundary_atom():
    doc = rm1_doc()
    doc["kernel"][0]["atoms"][0]["zeta"] = ["10.0"]  # on the region boundary
    model = load_model(doc)
    report = validate_model(model, grid_density=10, rng_seed=1)
    check = next(c for c in report.checks if c.name == "kernel_atoms")
    assert not check.passed
    assert "boundary" in check.detail
    assert check.witness is not None


def test_validate_flags_zero_cost_entry():
    doc = rm1_doc()
    doc["costs"]["intervention"] = {"kind": "per_target", "values": [1.0, 0.0]}
    model = load_model(doc)
    report = validate_model(model, grid_density=10, rng_seed=1)
    check = next(c for c in report.checks if c.name == "intervention_cost_bounds")
    assert not check.passed
    assert "c0 > 0 violated" in check.detail


def test_validate_flags_unbounded_exit_time():
    doc = rm1_doc()
    # Decay toward an interior target never reaches the boundary.
    doc["flow"] = {
        "family": "exponential-decay-to-target",
        "params": {"1": {"rate": [1.0], "target": [5.0]},
                   "2": {"rate": [1.0], "target": [5.0]}},
    }
    model = load_model(doc)
    report = validate_model(model, grid_density=10, rng_seed=1)
    check = next(c for c in report.checks if c.name == "exit_time_bounded")
    assert not check.passed


def test_triangle_violation_detected():
    doc = rm1_doc()
    # Quadratic distance penalty: going far directly costs more than hopping
    # through the closer control point, so the triangle rule breaks near 0.
    doc["costs"]["intervention"] = {
        "kind": "expr", "expr": "0.1 + 0.01*(zeta[0]-y[0])**2"
    }
    doc["costs"]["intervention_bounds"] = [0.1, 2.0]
    model = load_model(doc)
    report = validate_model(model, grid_density=10, rng_seed=1)
    check = next(c for c in report.checks if c.name == "intervention_cost_triangle")
    assert not check.passed
    assert check.witness is not None


def test_expression_intervention_cost():
    doc = rm1_doc()
    doc["costs"]["intervention"] = {
        "kind": "expr", "expr": "1.0 + 0.01*abs(zeta[0] - y[0])"
    }
    doc["costs"]["intervention_bounds"] = [1.0, 1.2]
    model = load_model(doc)
    assert model.costs.intervention_along(1, np.array([[2.0]]), 0)[0] == pytest.approx(1.06)
    report = validate_model(model, grid_density=20, rng_seed=3)
    assert report.passed


def test_kernel_coverage_error():
    doc = rm1_doc()
    doc["kernel"][0]["region"] = [[0.0, 4.0]]  # mode-1 coverage hole above 4
    model = load_model(doc)
    with pytest.raises(KernelCoverageError, match=r"zeta=\(6\.0,\)"):
        model.kernel.claim(1, np.array([[3.0], [6.0], [4.0]]))
    [(entry, rows)] = model.kernel.claim(1, np.array([[3.0], [4.0]]))
    assert entry is model.kernel.entries[0]
    assert rows.tolist() == [0, 1]


def test_region_split_kernel_claims_a_flow_end_rounded_past_its_edge():
    # Mode 1 decays to -2, so its flows meet the zeta = 0 boundary a rounding
    # error outside the [0, 5] entry region.
    doc = json.loads((MODEL_PATH.parent / "affine_intensity.json").read_text())
    doc["kernel"][2]["atoms"][0]["zeta"] = ["6.0"]
    doc["flow"] = {"family": "exponential-decay-to-target",
                   "params": {"1": {"target": [-2.0], "rate": [0.4]},
                              "2": {"target": [-2.0], "rate": [0.4]}}}
    model = load_model(doc)
    start = np.array([[8.0]])
    end = model.flow.position(1, start, model.flow.hit_times(1, start))
    assert end[0, 0] < 0.0
    [(entry, rows)] = model.kernel.claim(1, np.vstack([end, [[3.0]]]))
    assert entry is model.kernel.entries[0] and rows.tolist() == [0, 1]
    assert validate_model(model, grid_density=20).passed
    h = compute_h(model, GridSpec(density=20))
    assert value_iterate(model, h, n_max=1, eps=0.01).stages
    with pytest.raises(KernelCoverageError, match=r"zeta=\(-0\.001,\)"):
        model.kernel.claim(1, np.array([[3.0], [-1e-3]]))


def test_region_membership_helpers(rm1):
    region = rm1.region(1)
    assert region.contains_interior((5.0,))
    assert not region.contains_interior((0.0,))


def test_mode_labels_preserved(rm1):
    # Mode identifiers are the declared labels (1-based here).
    assert set(rm1.modes) == {1, 2}


def test_static_atoms_helper(rm1):
    table = rm1.kernel.static_atoms_for(1)
    assert table.atoms == [(2, (5.0,), 1.0)]
    assert rm1.kernel.static_atoms_for(1) is table
    doc = rm1_doc()
    doc["kernel"][0]["atoms"][0]["zeta"] = ["zeta[0]*0.5 + 1.0"]
    model = load_model(doc)
    assert model.kernel.static_atoms_for(1) is None
    [rec] = model.kernel.atom_records(1, np.array([[4.0]]))
    assert (rec.mode, rec.positions.tolist(), rec.prob, rec.atom) == (2, [[3.0]], 1.0, 0)


def test_content_hash_tracks_document():
    a = load_model(rm1_doc())
    doc = rm1_doc()
    doc["discount"] = 0.6
    b = load_model(doc)
    assert a.content_hash != b.content_hash
    assert a.content_hash == load_model(rm1_doc()).content_hash


def test_as_state_normalizes():
    x = as_state(1, 2)
    assert x.zeta == (2.0,)
    assert x.dim == 1


def test_validate_rejects_a_negative_seed(rm1):
    with pytest.raises(DomainError, match="seed"):
        validate_model(rm1, grid_density=10, rng_seed=-1)


FLOW_PARAMS = {
    "constant-drift": {"velocity": [-1.0, 0.5]},
    "linear-decay-to-target": {"target": [-1.0, 3.0], "rate": [1.0, 2.0]},
    "exponential-decay-to-target": {"target": [-2.0, 12.0], "rate": [0.4, 0.3]},
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", list(FLOW_PARAMS))
def test_scalar_and_array_flow_maps_agree(family, dim):
    """hit_fn/position_fn on tuples against hit_times/position on arrays.

    Drift and linear decay run the same arithmetic in both forms, to the bit.
    Exponential decay uses math.exp/math.log against numpy's, so positions
    may differ by rounding scaled with |zeta - target|, and t* by 2 ulp."""
    doc = planar_doc()
    bounds = [[0.0, 4.0], [0.0, 6.0]][:dim]
    doc["modes"][0]["bounds"] = bounds
    params = {k: v[:dim] for k, v in FLOW_PARAMS[family].items()}
    doc["flow"] = {"family": family, "params": {"1": params}}
    doc["kernel"][0]["atoms"][0]["zeta"] = ["2.0", "3.0"][:dim]
    for y in doc["control_set"]:
        y["zeta"] = y["zeta"][:dim]
    flow = load_model(doc).flow
    rng = np.random.default_rng(11)
    lo, hi = np.array(bounds).T
    zeta = lo + rng.random((2000, dim)) * (hi - lo)
    t = 6.0 * rng.random(2000)
    hits = flow.hit_times(1, zeta)
    moved = flow.position(1, zeta, t)
    scalar_hits = np.array([flow.hit_fn[1](z) for z in map(tuple, zeta.tolist())])
    scalar_moved = np.array([flow.position_fn[1](tuple(z), s)
                             for z, s in zip(zeta.tolist(), t.tolist())])
    assert np.isfinite(hits).all()
    if family == "exponential-decay-to-target":
        scale = np.maximum(1.0, np.abs(zeta - params["target"]))
        assert np.all(np.abs(scalar_moved - moved) <= 1e-15 * scale)
        assert np.all(np.abs(scalar_hits - hits) <= 2 * np.spacing(hits))
    else:
        assert np.array_equal(scalar_moved.view(np.uint64), moved.view(np.uint64))
        assert np.array_equal(scalar_hits.view(np.uint64), hits.view(np.uint64))

