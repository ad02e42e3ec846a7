"""The lockstep Monte Carlo engine against the single-path simulator.

`estimate_cost_J` runs its replicates in lockstep batches
(`dynamics.lockstep_costs`); `simulate_controlled` runs one path at a time
through the scalar step core and serves as the oracle.  Both draw replicate r
from `default_rng([seed, r])`, so every replicate must take the same jumps and
interventions, with totals equal up to the few ulp that numpy's exp and log
may differ from the math module's.
"""

import csv
import math
import warnings

import numpy as np
import pytest

from pdmp_impulse import dynamics
from pdmp_impulse.cli import main
from pdmp_impulse.controlled import estimate_cost_J, simulate_controlled
from pdmp_impulse.dynamics import default_horizon, lockstep_costs
from pdmp_impulse.errors import NumericalError
from pdmp_impulse.model import StatePoint
from pdmp_impulse.valuefn import (
    FunctionStore,
    GridSpec,
    PolicyStage,
    PolicyTable,
    _node_mesh,
    compute_h,
    value_iterate,
)

import oracle
from conftest import FEATURE_MODELS, MODEL_PATH, feature_model

EPS = 0.01
REL_TOL = 1e-12
BATCH_MODELS = ("rm1", "exponential_decay", "affine_intensity_region_split_kernel",
                "planar_intervening")


def _start(model):
    return StatePoint(1, (3.0, 4.0)) if model.dim == 2 else StatePoint(1, (7.0,))


@pytest.fixture(scope="module")
def solved():
    """Model, policy table (n_max 2) and start point by name, each built
    once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            model, density = feature_model(name)
            x0 = _start(model)
            spec = GridSpec(density=density, extra_points={x0.mode: (x0.zeta,)})
            h = compute_h(model, spec)
            cache[name] = model, value_iterate(model, h, n_max=2, eps=EPS), x0
        return cache[name]

    return get


def assert_matches_single_paths(model, table, x0, n0, seed, replicates):
    horizon = default_horizon(model)
    costs = lockstep_costs(model, table, x0, n0, horizon, seed, replicates)
    for rep in range(replicates):
        traj = simulate_controlled(x0, n0, table, model, np.random.default_rng([seed, rep]),
                                   horizon=horizon)
        assert costs.jumps[rep] == len(traj.events), rep
        assert costs.interventions[rep] == traj.n_interventions, rep
        assert abs(costs.total[rep] - traj.total_cost) <= REL_TOL * abs(traj.total_cost), rep


@pytest.mark.parametrize("n0", [0, 1, 2, 3])
def test_rm1_replicates_match_single_paths(rm1, rm1_table, n0):
    for x0, seed in ((StatePoint(1, (2.0,)), 31), (StatePoint(2, (4.0,)), 32)):
        assert_matches_single_paths(rm1, rm1_table, x0, n0, seed, 300)


@pytest.mark.parametrize("name", FEATURE_MODELS[1:] + ["nonconstant_running"])
def test_feature_model_replicates_match_single_paths(solved, name):
    model, table, x0 = solved(name)
    for n0 in (0, 1, 2):
        assert_matches_single_paths(model, table, x0, n0, 40 + n0, 200)


def test_interventions_happen_in_the_differential_models(solved, rm1, rm1_table):
    """The per-replicate checks above cover interventions, not only waiting."""
    horizon = default_horizon(rm1)
    costs = lockstep_costs(rm1, rm1_table, StatePoint(1, (2.0,)), 3, horizon, 31, 300)
    assert costs.interventions.max() >= 2
    for name in ("planar_intervening", "per_target_cost", "expr_cost"):
        model, table, x0 = solved(name)
        costs = lockstep_costs(model, table, x0, 2, default_horizon(model), 42, 60)
        assert costs.interventions.any(), name


def _disagreeing_cells(table, mode, budget, rng):
    """Centres of, and random points in, the cells whose corners do not all
    share one branch."""
    wait = table.stages[budget - 1].wait[mode]
    axes = table.axes[mode]
    corners = [wait[tuple(slice(b, wait.shape[k] - 1 + b) for k, b in enumerate(bits))]
               for bits in np.ndindex(*(2,) * wait.ndim)]
    mixed = np.nonzero(np.any([c != corners[0] for c in corners], axis=0))
    lo = np.stack([a[i] for a, i in zip(axes, mixed)], axis=-1)
    hi = np.stack([a[i + 1] for a, i in zip(axes, mixed)], axis=-1)
    inside = [lo + (hi - lo) * rng.random(lo.shape) for _ in range(20)]
    return np.concatenate([0.5 * (lo + hi)] + inside)


def assert_lookup_many_is_lookup(table, mode, zeta, rng):
    budgets = rng.integers(1, table.n_max + 1, zeta.shape[0])
    for budget in (1, 2, budgets):
        wait, r, y = table.lookup_many(mode, zeta, budget)
        for k, z in enumerate(zeta.tolist()):
            b = budget if np.isscalar(budget) else int(budget[k])
            want = oracle.lookup(table, mode, tuple(z), b)
            assert (bool(wait[k]), float(r[k]).hex(), int(y[k])) == \
                (want[0], float(want[1]).hex(), want[2]), (mode, z, b)


@pytest.mark.parametrize("name", ["rm1", "planar_intervening"])
def test_lookup_many_is_lookup_bit_for_bit(solved, name):
    model, table, _x0 = solved(name)
    rng = np.random.default_rng(7)
    mixed = 0
    for mode in model.mode_ids:
        lo, hi = (np.asarray(b) for b in table.coverage[mode])
        queries = [lo + (hi - lo) * rng.random((400, lo.size)),
                   table.node_positions(mode)]
        for budget in (1, 2):
            queries.append(_disagreeing_cells(table, mode, budget, rng))
            mixed += queries[-1].shape[0]
        assert_lookup_many_is_lookup(table, mode, np.concatenate(queries), rng)
    assert mixed


@pytest.mark.parametrize("dim", [1, 2])
def test_lookup_many_breaks_weight_ties_as_lookup(dim):
    """On integer axes a half-integer query gives every corner the same
    weight, so the first-max rule picks the lowest corner; random branches
    put such ties in cells whose corners disagree."""
    rng = np.random.default_rng(dim)
    axes = {1: (np.arange(11.0),) * dim}
    shape = (11,) * dim
    coverage = {1: ((0.0,) * dim, (10.0,) * dim)}
    stages = [PolicyStage(wait={1: rng.random(shape) < 0.5}, r={1: rng.random(shape)},
                          y_index={1: rng.integers(0, 3, shape)}, value={1: rng.random(shape)})
              for _ in range(2)]
    table = PolicyTable("synthetic", EPS, 2, axes, coverage, (),
                        FunctionStore(axes, {1: rng.random(shape)}, coverage), stages)
    halves = _node_mesh((np.arange(0.5, 10.0),) * dim)
    zeta = np.concatenate([halves, 10.0 * rng.random((200, dim)), _node_mesh(axes[1])])
    assert_lookup_many_is_lookup(table, 1, zeta, rng)


@pytest.mark.parametrize("name", ["affine_intensity_region_split_kernel", "planar_intervening"])
def test_array_claim_draws_the_scalar_claim_atoms(name):
    """Atoms drawn over arrays, with entries claiming rows first-match-wins,
    are the one-point claim's inverse-CDF picks, on region edges too."""
    model, _density = feature_model(name)
    rng = np.random.default_rng(3)
    for mode in model.mode_ids:
        region = model.region(mode)
        lo, hi = np.asarray(region.lower), np.asarray(region.upper)
        pre = lo + (hi - lo) * rng.random((300, lo.size))
        pre[:3] = [lo, hi, np.full(lo.size, 5.0)]
        u = rng.random(pre.shape[0])
        post_mode, post_pos, atom = dynamics._draw_atoms(model.kernel, mode, pre, u)
        for k in range(pre.shape[0]):
            atoms = oracle.atoms_at(model, mode, tuple(pre[k].tolist()))
            cdf = np.cumsum([prob for _point, prob in atoms])
            j = min(int(np.searchsorted(cdf, u[k], side="right")), len(atoms) - 1)
            assert (int(post_mode[k]), tuple(post_pos[k].tolist()), int(atom[k])) == \
                (atoms[j][0].mode, atoms[j][0].zeta, j), (mode, pre[k])


@pytest.mark.parametrize("batch, names, replicates", [
    pytest.param(1, BATCH_MODELS, 40, id="1"),
    pytest.param(7, BATCH_MODELS, 40, id="7"),
    # More than one batch at the default size, each filled in several row slices.
    pytest.param(7, ("rm1",), 2 * dynamics.BATCH_REPLICATES + 5, id="7-spanning"),
])
def test_estimates_do_not_depend_on_the_batch_size(solved, monkeypatch, batch, names,
                                                   replicates):
    runs = []
    for size in (dynamics.BATCH_REPLICATES, batch):
        monkeypatch.setattr(dynamics, "BATCH_REPLICATES", size)
        runs.append([estimate_cost_J(x0, n0, table, model, replicates=replicates, seed=5)
                     for model, table, x0 in map(solved, names)
                     for n0 in (0, 2)])
    for want, got in zip(*runs):
        assert got == want
        assert np.array_equal(got.totals, want.totals)


def test_zero_intensity_raises_no_numpy_warning(solved):
    model, table, x0 = solved("zero_intensity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n0 in (0, 1, 2):
            est = estimate_cost_J(x0, n0, table, model, replicates=50, seed=3)
            assert est.std_error == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("batched_mc")
    code = main(["compute-value", "--model", str(MODEL_PATH), "--out", str(out),
                 "--eps", "0.01", "--nmax", "2", "--grid", "60",
                 "--x0", "1:2.0", "--x0", "2:4.0"])
    assert code == 0
    return out / "policy.pdmpval"


def _simulate(artifact, out, *extra):
    code = main(["simulate", "--model", str(MODEL_PATH), "--out", str(out),
                 "--artifact", str(artifact), "--x0", "1:2.0", "--x0", "2:4.0",
                 "--n0", "0,1,2", "--replicates", "700", "--seed", "4", *extra])
    assert code == 0


def test_simulate_cost_report_is_byte_identical(artifact, tmp_path):
    _simulate(artifact, tmp_path / "a")
    _simulate(artifact, tmp_path / "b")
    assert (tmp_path / "a" / "cost_report.csv").read_bytes() == \
        (tmp_path / "b" / "cost_report.csv").read_bytes()


def test_dumped_costs_average_to_the_reported_means(artifact, tmp_path):
    _simulate(artifact, tmp_path, "--dump-costs")
    samples: dict[tuple[str, str], list[float]] = {}
    with open(tmp_path / "costs_samples.csv") as fh:
        for row in csv.DictReader(fh):
            samples.setdefault((row["x0"], row["N0"]), []).append(float(row["cost"]))
    with open(tmp_path / "cost_report.csv") as fh:
        report = list(csv.DictReader(fh))
    assert len(report) == len(samples) == 6
    for row in report:
        costs = np.asarray(samples[(row["x0"], row["N0"])])
        assert costs.size == 700
        assert float(np.mean(costs)) == float(row["mean"])
        assert math.isfinite(float(row["se"]))



def test_jump_guard_stops_a_lockstep_batch(rm1, rm1_table, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_JUMPS", 5)
    with pytest.raises(NumericalError, match="jumps"):
        estimate_cost_J(StatePoint(1, (2.0,)), 0, rm1_table, rm1, replicates=10, seed=0)
