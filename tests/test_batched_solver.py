"""The batched grid solver against the per-node scalar path.

The reference builds the waiting operator densely, node by node from
:class:`FlowProfile`, and runs each recursion stage node by node through
:class:`JCurve` and ``_inf_from_curve``, taking waiting values from the
solver's own ``GridOperator.apply``.  Each stage is compared from the same
previous-stage values, so differences cannot compound.
"""

import math
import tracemalloc

import numpy as np
import pytest

from pdmp_impulse import operators, valuefn
from pdmp_impulse.dynamics import hit_time
from pdmp_impulse.model import StatePoint
from pdmp_impulse.operators import FlowProfile as _FlowChunk
from pdmp_impulse.operators import (BRANCH_WAIT, FLOW_TIME_NODES, TIME_TOL_REL,
                                    MinRelocationValue, inf_J, op_Lscript, op_M)
from pdmp_impulse.operators import _first_entry as _first_entry_many
from pdmp_impulse.operators import _golden_min as _golden_min_many
from pdmp_impulse.valuefn import (
    GridSpec,
    _cell_weights,
    _node_mesh,
    compute_h,
    value_iterate,
)

from conftest import FEATURE_MODELS, feature_model
from oracle import (FlowProfile, JCurve, _first_entry, _golden_min, _inf_from_curve,
                    lscript)

EPS = 0.01


def _nodes(model, axes):
    return [StatePoint(m, tuple(p)) for m in model.mode_ids for p in _node_mesh(axes[m])]


def dense_operator(model, axes, n_t):
    """F and a dense B, accumulated node by node along each FlowProfile."""
    offsets, size = {}, 0
    for m in model.mode_ids:
        offsets[m] = size
        size += math.prod(len(a) for a in axes[m])
    running = np.empty(size)
    matrix = np.zeros((size, size))
    for i, x in enumerate(_nodes(model, axes)):
        profile = FlowProfile(model, x, n_t=n_t)
        running[i] = profile.running_grid[-1]
        for rec in profile.atom_records:
            weight = (profile.wq[rec.indices] * profile.damp_s[rec.indices]
                      * profile.lam_s[rec.indices] * rec.prob)
            flat, coef = _cell_weights(axes[rec.mode], rec.positions)
            np.add.at(matrix[i], (flat + offsets[rec.mode]).ravel(),
                      (coef * weight[:, None]).ravel())
        for point, prob in profile.end_atoms:
            flat, coef = _cell_weights(axes[point.mode], np.asarray(point.zeta)[None, :])
            np.add.at(matrix[i], (flat + offsets[point.mode]).ravel(),
                      (coef * profile.damp_grid[-1] * prob).ravel())
    return running, matrix


def dense_fixed_point(running, matrix):
    return np.linalg.solve(np.eye(running.size) - matrix, running)


def scalar_stage(model, gop, prev_vec, eps, n_t):
    """One recursion stage, node by node on the scalar path."""
    wait_vec = gop.apply(prev_vec)
    prev_store = gop.to_store(prev_vec)
    phi = [prev_store.eval(y) for y in model.control_set]
    reloc = MinRelocationValue(model, phi)
    out = {"wait": [], "r": [], "y_index": [], "value": []}
    for i, x in enumerate(_nodes(model, gop.axes)):
        profile = FlowProfile(model, x, n_t=n_t)
        curve = JCurve(profile, reloc, prev_store)
        detail = _inf_from_curve(curve, eps, TIME_TOL_REL)
        wait = bool(wait_vec[i] < detail.inf_value)
        r = profile.t_star if wait else detail.r_eps
        stop = np.asarray(model.flow.position(x.mode, np.asarray(x.zeta), r))[None, :]
        out["wait"].append(wait)
        out["r"].append(r)
        out["y_index"].append(int(np.argmin(
            [model.costs.intervention_along(x.mode, stop, j)[0] + p for j, p in enumerate(phi)])))
        out["value"].append(wait_vec[i] if wait else curve.at(r))
    return {k: np.asarray(v) for k, v in out.items()}


def _flat(stage_field, model):
    return np.concatenate([stage_field[m].ravel() for m in model.mode_ids])


@pytest.mark.parametrize("name", FEATURE_MODELS)
def test_batched_solver_matches_scalar_path(name):
    model, density = feature_model(name)
    h = compute_h(model, GridSpec(density=density))
    running, matrix = dense_operator(model, h.axes, FLOW_TIME_NODES)
    gop = h.operator
    assert np.array_equal(gop.offset_vec, running)
    assert np.allclose(gop.matrix.toarray(), matrix, rtol=1e-12, atol=1e-15)

    h_vec = _flat(h.values, model)
    h_ref = dense_fixed_point(running, matrix)
    assert np.all(np.abs(h_vec - h_ref) <= 1e-12 * np.maximum(1.0, np.abs(h_ref)))

    table = value_iterate(model, h, n_max=2, eps=EPS)
    t_star = np.array([hit_time(model, x) for x in _nodes(model, h.axes)])
    prev_vec = h_vec
    for stage in table.stages:
        ref = scalar_stage(model, gop, prev_vec, EPS, FLOW_TIME_NODES)
        wait = _flat(stage.wait, model)
        value = _flat(stage.value, model)
        assert np.array_equal(wait, ref["wait"])
        assert np.array_equal(_flat(stage.y_index, model), ref["y_index"])
        assert np.all(np.abs(_flat(stage.r, model) - ref["r"]) <= TIME_TOL_REL * t_star)
        assert np.all(np.abs(value - ref["value"])
                      <= 1e-12 * np.maximum(1e-300, np.abs(ref["value"])))
        prev_vec = value


def test_node_results_do_not_depend_on_chunk_size(monkeypatch):
    model, density = feature_model("affine_intensity_region_split_kernel")
    h = compute_h(model, GridSpec(density=density))
    table = value_iterate(model, h, n_max=2, eps=EPS)
    monkeypatch.setattr(operators, "CHUNK_ELEMENTS", 1)
    h_one = compute_h(model, GridSpec(density=density))
    one = value_iterate(model, h_one, n_max=2, eps=EPS)
    for m in model.mode_ids:
        assert np.array_equal(h_one.values[m], h.values[m])
    for got, want in zip(one.stages, table.stages):
        for field in ("wait", "r", "y_index", "value"):
            for m in model.mode_ids:
                assert np.array_equal(getattr(got, field)[m], getattr(want, field)[m])


# Test curves for the lockstep searches: a parabola, a flat curve (every
# comparison ties), a step and a kink.
_CURVES = [
    lambda t: (t - 0.37) ** 2,
    lambda t: 0.0 * t + 1.5,
    lambda t: np.where(t < 0.61, 2.0, 1.0),
    lambda t: np.abs(t - 0.2) - 0.1,
]


def _lockstep_fn(i, t):
    return np.array([float(_CURVES[k](tk)) for k, tk in zip(i, t)])


def test_lockstep_searches_match_scalar_ones():
    lo = np.array([0.0, 0.1, 0.3, 0.0])
    hi = np.array([1.0, 0.9, 0.8, 0.5])
    tol = np.full(4, 1e-6)
    best_t, best_f = _golden_min_many(_lockstep_fn, lo, hi, tol)
    threshold = np.array([0.01, 2.0, 1.5, 0.0])
    entry = _first_entry_many(_lockstep_fn, lo, hi, threshold, tol)
    for k, curve in enumerate(_CURVES):
        fn = lambda t, curve=curve: float(curve(t))
        assert (best_t[k], best_f[k]) == _golden_min(fn, lo[k], hi[k], tol[k])
        scalar_curve = type("Curve", (), {"at": staticmethod(fn)})
        assert entry[k] == _first_entry(scalar_curve, lo[k], hi[k], threshold[k], tol[k])


def test_left_index_is_searchsorted():
    model, _density = feature_model("rm1")
    geo = _FlowChunk(model, 1, np.array([[0.5], [3.3], [9.9]]), FLOW_TIME_NODES)
    for i, grid in enumerate(geo.tgrid):
        # Grid times, their float neighbours and near misses either side.
        t = np.concatenate([grid, np.nextafter(grid, -1.0).clip(0.0),
                            np.nextafter(grid, np.inf), grid * (1 + 1e-12),
                            grid * (1 - 1e-12)])
        want = np.searchsorted(grid, t, side="right") - 1
        assert np.array_equal(geo.left_index(np.full(t.size, i), t), want)


def _close(got, want):
    """Equal to within 1e-12 relative (exactly, where want is 0)."""
    return abs(got - want) <= 1e-12 * abs(want)


def _interior_points(model, mode, count=10):
    """``count`` fixed points strictly inside the region of ``mode``."""
    region = model.region(mode)
    lo, hi = np.asarray(region.lower), np.asarray(region.upper)
    frac = (np.arange(count)[:, None] * (0.6180339887 + np.arange(lo.size)) + 0.13) % 1.0
    return [StatePoint(mode, tuple(p)) for p in lo + (0.02 + 0.96 * frac) * (hi - lo)]


@pytest.mark.parametrize("name", FEATURE_MODELS)
def test_one_state_entries_match_the_scalar_oracle(name):
    model, density = feature_model(name)
    h = compute_h(model, GridSpec(density=density))
    reloc = MinRelocationValue(model, [h.eval(y) for y in model.control_set])
    for m in model.mode_ids:
        for x in _interior_points(model, m):
            got = inf_J(model, reloc, h, x, EPS)
            want = _inf_from_curve(
                JCurve(FlowProfile(model, x, n_t=FLOW_TIME_NODES), reloc, h), EPS, TIME_TOL_REL)
            assert got.attained_on_grid == want.attained_on_grid
            assert _close(got.inf_value, want.inf_value)
            assert _close(got.r_eps, want.r_eps)
            got = op_Lscript(model, h, x, EPS)
            want = lscript(model, h, x, EPS)
            assert got.branch == want.branch
            assert got.detail.attained_on_grid == want.detail.attained_on_grid
            for field in ("value", "wait_value"):
                assert _close(getattr(got, field), getattr(want, field))
            for field in ("inf_value", "r_eps"):
                assert _close(getattr(got.detail, field), getattr(want.detail, field))


@pytest.mark.parametrize("name", FEATURE_MODELS + ["nonconstant_running"])
def test_one_state_step_matches_value_iterate_at_every_node(name):
    """op_Lscript and value_iterate run the same step; only the waiting
    value comes from elsewhere (the one-state curve against the grid
    operator), so it alone may differ, by rounding."""
    model, density = feature_model(name)
    h = compute_h(model, GridSpec(density=density))
    table = value_iterate(model, h, n_max=2, eps=EPS)
    for k, stage in enumerate(table.stages, start=1):
        w = table.value_store(k - 1)
        phi = [w.eval(y) for y in model.control_set]
        for m in model.mode_ids:
            nodes = table.node_positions(m)
            t_star = model.flow.hit_times(m, nodes)
            wait, r, y_index, value = (getattr(stage, f)[m].ravel()
                                       for f in ("wait", "r", "y_index", "value"))
            for i, zeta in enumerate(nodes):
                got = op_Lscript(model, w, StatePoint(m, tuple(zeta)), EPS)
                assert (got.branch == BRANCH_WAIT) == wait[i], (k, zeta)
                stop = model.flow.position(m, zeta[None, :], r[i:i + 1])[0]
                assert op_M(model, phi, StatePoint(m, tuple(stop)))[1] == y_index[i]
                if wait[i]:
                    assert r[i] == t_star[i]
                    assert abs(got.value - value[i]) <= 1e-14 * abs(value[i]), (k, zeta)
                else:
                    assert (got.detail.r_eps, got.value) == (r[i], value[i]), (k, zeta)


def test_value_iterate_looks_up_the_curve_names_at_call_time(monkeypatch):
    # The bench traces the solver by replacing these names with wrappers.
    model, density = feature_model("rm1")
    h = compute_h(model, GridSpec(density=density))
    calls = dict.fromkeys(("FlowProfile", "JCurve", "at"), 0)

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(valuefn.JCurve, "at", counted(valuefn.JCurve.at, "at"))
    for key in ("FlowProfile", "JCurve"):
        monkeypatch.setattr(valuefn, key, counted(getattr(valuefn, key), key))
    value_iterate(model, h, n_max=1, eps=EPS)
    assert all(count > 0 for count in calls.values()), calls


@pytest.mark.parametrize("name", ["rm1", "affine_intensity_region_split_kernel"])
def test_unsettled_windows_are_rebuilt_to_the_same_stages(monkeypatch, name):
    """A window whose entry is not below the threshold is settled from its
    whole curve; forcing that at every node changes no stage field."""
    model, density = feature_model(name)
    h = compute_h(model, GridSpec(density=density))
    want = value_iterate(model, h, n_max=2, eps=EPS)
    windows, settle = operators.JCurve.windows, operators.CurveWindows.settle
    settled = []

    def unsettled(curve, eps):
        cut = windows(curve, eps)
        cut.nodes["entry"][:] = 0
        cut.nodes["columns"][:, 2:] = 0
        cut.nodes["entry_value"][:] = np.inf
        return cut

    def counted(batch, rows, band):
        settled.append(rows.size)
        return settle(batch, rows, band)

    monkeypatch.setattr(operators.JCurve, "windows", unsettled)
    monkeypatch.setattr(operators.CurveWindows, "settle", counted)
    got = value_iterate(model, h, n_max=2, eps=EPS)
    assert sum(settled) == sum(int((~s.wait[m]).sum()) for s in want.stages
                               for m in model.mode_ids) > 0
    for g, w in zip(got.stages, want.stages):
        for field in ("wait", "r", "y_index", "value"):
            for m in model.mode_ids:
                assert getattr(g, field)[m].tobytes() == getattr(w, field)[m].tobytes()


def test_stage_memory_is_bounded_in_the_grid_size():
    """The searches run over batches of at most chunk_rows(2 * GL_ORDER)
    nodes, so value_iterate's traced peak grows little with the grid.
    Measured on rm1 from density 400 to 1600 (numpy 2.4): +0.35 MiB, and
    +1.09 MiB with one batch per mode."""
    model, _density = feature_model("rm1")
    peaks = []
    for density in (400, 1600):
        h = compute_h(model, GridSpec(density=density))
        tracemalloc.start()
        try:
            value_iterate(model, h, n_max=3, eps=EPS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 0.7 * 2**20, peaks
