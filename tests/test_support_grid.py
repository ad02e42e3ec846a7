"""The pinned density-2 grid is exact at the support points.

:class:`GridSpec` pins every control point, static kernel atom and extra
point as a grid node.  When every kernel atom has a fixed position, the grid
operator couples each node only to the atoms and each stage only to the
control points, so h, V_k and the policy fields on the support set S
(control points, static atoms and pinned starts) do not depend on the
density.  The density-2 grid, two margin nodes plus the pinned coordinates
per axis, answers there as a dense grid does; off S it interpolates between
far-apart nodes, and a state-dependent atom needs a dense grid.
"""

import json

import numpy as np
import pytest

from pdmp_impulse.model import load_model
from pdmp_impulse.valuefn import GridSpec, compute_h, value_iterate

from conftest import FEATURE_MODELS, MODEL_PATH, PINNED, feature_model, rm1_doc

EPS = 0.01
N_MAX = 3

# Relative gap between the density-2 and the dense values at S: at most
# 4.3e-16 over the static feature models, 1.6e-16 on the static
# region-split model (h; 0 on V_k).
REL_TOL = 1e-15

STATIC_FEATURE_MODELS = [name for name in FEATURE_MODELS
                         if name != "affine_intensity_region_split_kernel"]


def support_points(model, extra_points=None) -> dict[int, np.ndarray]:
    """S by mode, as an (n, d) array of positions per mode."""
    points = [(y.mode, tuple(y.zeta)) for y in model.control_set]
    for entry in model.kernel.entries:
        for atom in entry.atoms:
            assert atom.static_position is not None, "S is defined for static atoms only"
            points.append((atom.mode, tuple(atom.static_position)))
    for mode, positions in (extra_points or {}).items():
        points.extend((mode, tuple(p)) for p in positions)
    return {mode: np.array(sorted({z for m, z in points if m == mode}), dtype=float)
            for mode in sorted({m for m, _z in points})}


def _table(model, density, extra_points):
    h = compute_h(model, GridSpec(density=density, extra_points=extra_points))
    return value_iterate(model, h, N_MAX, EPS)


def assert_density_two_is_exact_on_support(model, dense, extra_points=None, rel_tol=REL_TOL):
    """h and V_1..V_N_MAX agree within rel_tol at S between densities 2 and
    dense; the branch, r and restart index of every stage are identical."""
    coarse = _table(model, 2, extra_points)
    fine = _table(model, dense, extra_points)
    for mode, zeta in support_points(model, extra_points).items():
        for k in range(N_MAX + 1):
            np.testing.assert_allclose(coarse.value_store(k).eval_many(mode, zeta),
                                       fine.value_store(k).eval_many(mode, zeta),
                                       rtol=rel_tol, atol=0.0, err_msg=f"k={k} mode={mode}")
        for k in range(1, N_MAX + 1):
            for name, got, want in zip(("wait", "r", "y_index"),
                                       coarse.lookup_many(mode, zeta, k),
                                       fine.lookup_many(mode, zeta, k)):
                np.testing.assert_array_equal(got, want, err_msg=f"{name} k={k} mode={mode}")


def static_region_split_model():
    """The affine-intensity model with a static mode-2 atom and a
    distance-dependent intervention cost: a region-split kernel with
    non-constant intensity and running cost, all of its atoms fixed."""
    doc = json.loads((MODEL_PATH.parent / "affine_intensity.json").read_text())
    doc["kernel"][2]["atoms"][0]["zeta"] = ["6.0"]
    doc["costs"]["intervention"] = {"kind": "expr", "expr": "1.0 + 0.05*abs(zeta[0] - y[0])"}
    doc["costs"]["intervention_bounds"] = [1.0, 1.5]
    return load_model(doc)


def test_rm1_pinned_density_two_is_bit_identical_on_support():
    assert_density_two_is_exact_on_support(load_model(rm1_doc()), 400, PINNED, rel_tol=0.0)


@pytest.mark.parametrize("name", STATIC_FEATURE_MODELS)
def test_static_feature_model_density_two_matches_its_density(name):
    model, density = feature_model(name)
    assert_density_two_is_exact_on_support(model, density)


def test_static_region_split_model_density_two_matches_a_dense_grid():
    assert_density_two_is_exact_on_support(static_region_split_model(), 30, {1: ((7.0,),)})


def test_a_state_dependent_atom_needs_a_dense_grid():
    """The control case: where an atom moves with the pre-jump state, h at
    the control points depends on the density (1.6e-2 relative between
    densities 2 and 30)."""
    model, density = feature_model("affine_intensity_region_split_kernel")
    zeta = np.array([y.zeta for y in model.control_set])
    coarse, fine = (compute_h(model, GridSpec(density=d)).eval_many(1, zeta)
                    for d in (2, density))
    assert np.max(np.abs(coarse / fine - 1.0)) > 1e-2
