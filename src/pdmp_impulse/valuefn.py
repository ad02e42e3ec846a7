"""No-impulse cost, approximate value functions, and policy fields.

The no-impulse cost h is the fixed point of the waiting-value operator.  On
the grid it is the exact solution of (I - B) h = F, found by one sparse LU;
no tolerance is needed, because every row of the nonnegative matrix B sums
to an expected jump discount below one.  The budgeted value functions V_k
then follow the single-jump-or-intervention recursion: at every grid node
the strictly cheaper of "wait for the natural jump" and "intervene at the
eps-threshold time" is recorded together with the intervention time and
restart target.  Each stage builds the curves of chunks of nodes, keeps
their cell windows, and runs the one step of the operators module,
:func:`~.operators.jump_or_intervene`, once per batch of a mode's windows
(:func:`~.operators.curve_batches`), with waiting values from one
application of the grid operator that :func:`compute_h` built and kept on
h: one discretization per solve.  Every flow, in the grid
operator, the stages and :func:`eval_Vk_exact`, lies on the one time grid of
``operators.FLOW_TIME_NODES`` points.

Value interpolation, policy lookup and operator assembly find grid cells
through one locator, :meth:`FunctionStore.locate`: a position is served when
every coordinate lies in its mode's region widened by a rounding slack, and
a NaN coordinate counts as outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    ExtrapolationError,
    ModelParseError,
    NumericalError,
    PolicyCoverageError,
    ResourceBudgetError,
)
from .model import PdmpModel, StatePoint, _coverage_box, _node_mesh
from .operators import (
    BRANCH_INTERVENE,
    BRANCH_WAIT,
    FLOW_TIME_NODES,
    FlowProfile,
    FunctionEvaluable,
    JCurve,
    MinRelocationValue,
    check_positive,
    chunk_rows,
    curve_batches,
    jump_or_intervene,
    op_Lscript,
)
from .quadrature import panel_cumulative

BRANCH_NONE = "no-intervention"

GRID_MARGIN_REL = 1e-6  # gap from region boundary to outermost node, relative to extent


def _cell_weights(axes: tuple[np.ndarray, ...], pos: np.ndarray):
    """Flat corner indices and multilinear weights, both (n, 2^d), of the
    grid cells holding an (n, d) position batch.  Corner bit k steps along
    axis k; flat indices run last axis fastest.  A position on an inner node
    takes the cell above it, and one past the outer nodes the outer cell."""
    flat = np.zeros((pos.shape[0], 1), dtype=np.int64)
    coef = np.ones((pos.shape[0], 1))
    for k, axis in enumerate(axes):
        stride = math.prod(len(a) for a in axes[k + 1:])
        z = pos[:, k]
        i = np.minimum(np.maximum(np.searchsorted(axis, z, side="right") - 1, 0),
                       len(axis) - 2)
        t = ((z - axis[i]) / (axis[i + 1] - axis[i]))[:, None]
        flat = flat + (i * stride)[:, None]
        flat = np.concatenate([flat, flat + stride], axis=1)
        coef = np.concatenate([coef * (1.0 - t), coef * t], axis=1)
    return flat, coef


class FunctionStore:
    """Evaluable function on the state space: per-mode grids and multilinear
    interpolation.

    Queries may fall in the thin margin between the outermost nodes and the
    region boundary (linear extrapolation); anything beyond the closure raises
    :class:`ExtrapolationError`.

    ``operator`` is the :class:`GridOperator` whose fixed point the values
    are, on the store :func:`compute_h` returns, and None on any other store.
    """

    def __init__(self, axes: dict[int, tuple[np.ndarray, ...]],
                 values: dict[int, np.ndarray],
                 coverage: dict[int, tuple[tuple[float, ...], tuple[float, ...]]]):
        self.axes = {m: tuple(np.asarray(a, dtype=float) for a in ax)
                     for m, ax in axes.items()}
        self.values = {m: np.asarray(v, dtype=float) for m, v in values.items()}
        self.coverage = coverage
        for m, v in self.values.items():
            if not np.all(np.isfinite(v)):
                raise NumericalError(f"non-finite stored values in mode {m}")
        self.operator: GridOperator | None = None

    def locate(self, mode: int, pos: np.ndarray):
        """Flat corner indices and weights of the cells holding an (n, d)
        position batch in one mode (:func:`_cell_weights`).  A position
        outside the mode's widened coverage box, or with a NaN coordinate,
        raises :class:`ExtrapolationError`."""
        axes = self.axes.get(mode)
        if axes is None:
            raise ExtrapolationError(f"mode {mode} not covered by this store")
        if pos.ndim != 2 or pos.shape[1] != len(axes):
            raise ExtrapolationError(
                f"queries of shape {pos.shape} do not fit the store's {len(axes)} coordinates"
            )
        lo, hi = _coverage_box(*self.coverage[mode])
        outside = ~((lo <= pos) & (pos <= hi)).all(axis=1)
        if outside.any():
            raise ExtrapolationError(
                f"query (mode={mode}, zeta={tuple(pos[np.argmax(outside)].tolist())}) "
                "outside grid coverage"
            )
        return _cell_weights(axes, pos)

    def eval(self, x: StatePoint) -> float:
        return float(self.eval_many(x.mode, np.asarray(x.zeta)[None, :])[0])

    def eval_many(self, mode: int, pos: np.ndarray) -> np.ndarray:
        flat, coef = self.locate(mode, np.atleast_2d(np.asarray(pos, dtype=float)))
        return (self.values[mode].ravel()[flat] * coef).sum(axis=1)


@dataclass(frozen=True)
class GridSpec:
    """How to lay out per-mode grids: node density per axis and pinned points."""

    density: int = 200
    extra_points: dict[int, tuple[tuple[float, ...], ...]] | None = None

    def build_axes(self, model: PdmpModel) -> dict[int, tuple[np.ndarray, ...]]:
        if self.density < 2:
            raise ModelParseError("grid density must be at least 2")
        axes: dict[int, tuple[np.ndarray, ...]] = {}
        pinned: dict[int, list[np.ndarray]] = {m: [] for m in model.mode_ids}
        for y in model.control_set:
            pinned[y.mode].append(np.asarray(y.zeta))
        for entry in model.kernel.entries:
            for atom in entry.atoms:
                if atom.static_position is not None:
                    pinned[atom.mode].append(np.asarray(atom.static_position))
        if self.extra_points:
            for m, pts in self.extra_points.items():
                for p in pts:
                    pinned[m].append(np.asarray(p, dtype=float))
        for m in model.mode_ids:
            region = model.region(m)
            mode_axes = []
            for k in range(model.dim):
                lo, hi = region.lower[k], region.upper[k]
                delta = GRID_MARGIN_REL * (hi - lo)
                base = np.linspace(lo + delta, hi - delta, self.density)
                coords = [p[k] for p in pinned[m] if lo < p[k] < hi]
                axis = np.unique(np.concatenate([base, np.asarray(coords)]))
                mode_axes.append(axis)
            axes[m] = tuple(mode_axes)
        return axes


class GridOperator:
    """Discretized waiting-value operator on a fixed grid.

    Applying the operator to a grid function w is the affine map F + B w where
    F holds the per-node discounted running cost to the boundary and B the
    nonnegative weights coupling each node to the interpolation cells of the
    kernel atoms seen along its flow line.  B is stored as a CSR matrix; a
    static kernel gives at most (atoms + end atoms) * 2^d entries per row.
    Atom cells come from the locator of ``grid``, a zero store that holds the
    layout, so an atom outside the model's regions raises
    :class:`ExtrapolationError`.
    """

    def __init__(self, model: PdmpModel, axes: dict[int, tuple[np.ndarray, ...]]):
        self.model = model
        self.axes = axes
        self.grid = FunctionStore(
            axes, {m: np.zeros([len(a) for a in axes[m]]) for m in model.mode_ids},
            {m: (model.region(m).lower, model.region(m).upper) for m in model.mode_ids})
        sizes = [self.grid.values[m].size for m in model.mode_ids]
        self.mode_offsets = dict(zip(model.mode_ids, np.cumsum([0] + sizes[:-1]).tolist()))
        self.size = offset = sum(sizes)
        self.offset_vec = np.empty(offset)
        data, indices, counts = [], [], []
        static_cells = {m: self._static_cells(m) for m in model.mode_ids}
        for start, geo in self.node_profiles():
            for rows in geo.blocks():
                running, *block = self._block_rows(geo, rows, static_cells[geo.mode],
                                                   *geo.quadrature(rows))
                self.offset_vec[start + rows] = running
                data.append(block[0])
                indices.append(block[1])
                counts.append(block[2])
        indptr = np.zeros(offset + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=indptr[1:])
        self.matrix = scipy.sparse.csr_matrix(
            (np.concatenate(data), np.concatenate(indices), indptr),
            shape=(offset, offset),
        )

    def node_profiles(self):
        """Global index of the first node and flow profile of consecutive
        same-mode chunks of grid nodes, in global node order, on the
        FLOW_TIME_NODES time grid."""
        size = chunk_rows(FLOW_TIME_NODES)
        for m in self.model.mode_ids:
            nodes = _node_mesh(self.axes[m])
            for lo in range(0, nodes.shape[0], size):
                yield (self.mode_offsets[m] + lo,
                       FlowProfile(self.model, m, nodes[lo:lo + size], FLOW_TIME_NODES))

    def _cells(self, mode: int, pos: np.ndarray):
        flat, coef = self.grid.locate(mode, pos)
        return flat + self.mode_offsets[mode], coef

    def _static_cells(self, mode: int):
        """Probability, cell indices and weights of each atom of the mode's
        static kernel, located once; None unless the kernel is static."""
        static = self.model.kernel.static_atoms_for(mode)
        if static is None:
            return None
        return [(prob, *self._cells(a_mode, a_pos[None, :]))
                for (a_mode, _pos, prob), a_pos in zip(static.atoms, static.positions)]

    def _block_rows(self, geo: FlowProfile, rows: np.ndarray, static_cells,
                    wq, pos, lam, damp, f):
        """F, then the CSR data, column indices and row lengths of B, on the
        rows of one block of nodes; ``static_cells`` are the mode's
        :meth:`_static_cells`.

        Entries for one column add up in input order (interior atoms,
        quadrature node by node, then the end atoms), the order of a sum
        along one node's flow.
        """
        model, mode = self.model, geo.mode
        n = rows.size
        nodes, cols, vals = [], [], []
        jump = wq * damp * lam
        end_damp = geo.damping(rows, geo.t_star[rows])
        if static_cells is not None:
            total = jump.sum(axis=1)
            for prob, flat, coef in static_cells:
                nodes.append(np.repeat(np.arange(n), coef.shape[1]))
                cols.append(np.tile(flat[0], n))
                vals.append(((total * prob)[:, None] * coef).ravel())
            for prob, flat, coef in static_cells:
                nodes.append(np.repeat(np.arange(n), coef.shape[1]))
                cols.append(np.tile(flat[0], n))
                vals.append((coef * end_damp[:, None] * prob).ravel())
        else:
            for rec in model.kernel.atom_records(mode, pos.reshape(-1, pos.shape[-1])):
                flat, coef = self._cells(rec.mode, rec.positions)
                weight = jump.ravel()[rec.indices] * rec.prob
                nodes.append(np.repeat(rec.indices // wq.shape[1], coef.shape[1]))
                cols.append(flat.ravel())
                vals.append((coef * weight[:, None]).ravel())
            for rec in model.kernel.atom_records(mode, geo.flow(geo.t_star[rows], rows)):
                flat, coef = self._cells(rec.mode, rec.positions)
                nodes.append(np.repeat(rec.indices, coef.shape[1]))
                cols.append(flat.ravel())
                vals.append((coef * end_damp[rec.indices][:, None] * rec.prob).ravel())
        keys, where = np.unique(np.concatenate(nodes) * self.size + np.concatenate(cols),
                                return_inverse=True)
        data = np.bincount(where, weights=np.concatenate(vals), minlength=keys.size)
        counts = np.bincount(keys // self.size, minlength=n)
        running = panel_cumulative(damp * f, wq)[:, -1]
        return running, data, keys % self.size, counts

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.offset_vec + self.matrix @ vec

    def split(self, vec: np.ndarray) -> dict[int, np.ndarray]:
        return {m: vec[off:off + self.grid.values[m].size].reshape(self.grid.values[m].shape)
                for m, off in self.mode_offsets.items()}

    def to_store(self, vec: np.ndarray) -> FunctionStore:
        return FunctionStore(self.axes, self.split(vec), self.grid.coverage)


def compute_h(model: PdmpModel, store_spec: GridSpec | None = None) -> FunctionStore:
    """No-impulse cost on a grid: the exact solution of the grid system
    (I - B) h = F of the waiting operator, found by one sparse LU.

    No tolerance is needed: every row of B sums to an expected jump discount
    below one, so I - B is strictly diagonally dominant and nonsingular.  The
    store keeps the operator.
    """
    spec = store_spec or GridSpec()
    gop = GridOperator(model, spec.build_axes(model))
    system = scipy.sparse.identity(gop.size, format="csc") - gop.matrix.tocsc()
    h = gop.to_store(scipy.sparse.linalg.spsolve(system, gop.offset_vec))
    h.operator = gop
    return h


@dataclass(eq=False)
class PolicyStage:
    """Arrays over grid nodes for one budget level: branch flag, intervention
    time, restart index, and value."""

    wait: dict[int, np.ndarray]
    r: dict[int, np.ndarray]
    y_index: dict[int, np.ndarray]
    value: dict[int, np.ndarray]


@dataclass(eq=False)
class PolicyTable:
    model_hash: str
    eps: float
    n_max: int
    axes: dict[int, tuple[np.ndarray, ...]]
    coverage: dict[int, tuple[tuple[float, ...], tuple[float, ...]]]
    control_set: tuple[StatePoint, ...]
    h: FunctionStore
    stages: list[PolicyStage] = field(default_factory=list)
    grid_spec: dict | None = None
    _arrays: dict = field(default_factory=dict, init=False, repr=False)

    def value_store(self, k: int) -> FunctionStore:
        if k == 0:
            return self.h
        stage = self._stage(k)
        return FunctionStore(self.axes, stage.value, self.coverage)

    def value(self, k: int, x: StatePoint) -> float:
        return self.value_store(k).eval(x)

    def _stage(self, k: int) -> PolicyStage:
        if not 1 <= k <= len(self.stages):
            raise PolicyCoverageError(f"no stage {k} in table (n_max={len(self.stages)})")
        return self.stages[k - 1]

    def node_positions(self, mode: int) -> np.ndarray:
        return _node_mesh(self.axes[mode])

    def lookup_many(self, mode: int, zeta: np.ndarray, budget):
        """Waiting flag, intervention time r and restart index at an (n, d)
        array of positions in one mode; budget is one int or an (n,) int
        array, each at least 1.  Returns (wait, r, y_index) arrays.

        Cells and coverage are those of ``h``, which shares the table's axes
        and coverage.  The branch and the restart index are the nearest
        node's, the lowest cell corner winning weight ties.  r interpolates
        over the corners on that branch: the plain multilinear sum when all
        corners agree, the stored r when the nearest node agrees alone, else
        the weights renormalised over the agreeing corners.  Branch fields of
        every stage are stacked into arrays on first use.
        """
        budget = np.asarray(budget)
        if budget.size and not 1 <= budget.min() <= budget.max() <= len(self.stages):
            raise PolicyCoverageError(
                f"budgets outside the table's stages 1..{len(self.stages)}"
            )
        flat, coef = self.h.locate(mode, zeta)
        fields = self._arrays.get(mode)
        if fields is None:
            fields = self._arrays[mode] = self._stacked_arrays(mode)
        size, waits, rs, ys = fields
        flat += np.reshape((budget - 1) * size, (-1, 1))
        nearest = flat[np.arange(flat.shape[0]), np.argmax(coef, axis=1)]
        wait = waits[nearest]
        total = weight = 0.0
        agreeing = 0
        for corner, c in zip(flat.T, coef.T):
            agree = waits[corner] == wait
            total = np.where(agree, total + rs[corner] * c, total)
            weight = np.where(agree, weight + c, weight)
            agreeing = agreeing + agree
        r = total
        alone = agreeing == 1
        r[alone] = rs[nearest[alone]]
        partial = ~alone & (agreeing < coef.shape[1])
        r[partial] = total[partial] / weight[partial]
        return wait, r, ys[nearest]

    def _stacked_arrays(self, mode: int):
        """The mode's node count and its branch fields of every stage
        concatenated, stage k at offset (k - 1) times the node count."""

        def stacked(name):
            return np.concatenate([getattr(s, name)[mode].ravel() for s in self.stages])

        return self.h.values[mode].size, stacked("wait"), stacked("r"), stacked("y_index")


@dataclass(frozen=True)
class PolicyQueryResult:
    r: float
    y: StatePoint | None
    branch: str


def value_iterate(model: PdmpModel, h: FunctionStore, n_max: int, eps: float) -> PolicyTable:
    """Run the budgeted jump-or-intervene recursion from the no-impulse cost.

    ``h`` is the store :func:`compute_h` returned for this model, whose grid
    operator every stage applies.  At each node the waiting value and the refined
    infimum of the intervention-value curve are compared strictly; the
    intervention branch records the eps-threshold time and the restart point
    minimizing relocation cost plus previous-stage value (ties to the lowest
    control index).
    """
    if n_max < 1:
        raise ModelParseError("n_max must be at least 1")
    check_positive(eps, "eps")
    gop = h.operator
    if gop is None:
        raise ModelParseError("h carries no grid operator; pass the store compute_h returns")
    if gop.model.content_hash != model.content_hash:
        raise ModelParseError("h was computed for another model")
    table = PolicyTable(
        model_hash=model.content_hash,
        eps=eps,
        n_max=n_max,
        axes=h.axes,
        coverage=h.coverage,
        control_set=model.control_set,
        h=h,
    )
    prev_vec = np.concatenate(
        [h.values[m].ravel() for m in model.mode_ids]
    )
    for _k in range(1, n_max + 1):
        wait_vec = gop.apply(prev_vec)
        prev_store = gop.to_store(prev_vec)
        phi = [prev_store.eval(y) for y in model.control_set]
        reloc = MinRelocationValue(model, phi)
        new_vec = np.empty(gop.size)
        wait_flags = np.empty(gop.size, dtype=bool)
        r_vec = np.empty(gop.size)
        y_vec = np.empty(gop.size, dtype=np.int64)
        curves = ((start, JCurve(profile, reloc, prev_store))
                  for start, profile in gop.node_profiles())
        for start, windows in curve_batches(curves, eps):
            rows = slice(start, start + windows.profile.size)
            wait_flags[rows], r_vec[rows], new_vec[rows], y_vec[rows], _low = jump_or_intervene(
                windows, wait_vec[rows])
        table.stages.append(
            PolicyStage(
                wait=gop.split(wait_flags),
                r=gop.split(r_vec),
                y_index=gop.split(y_vec),
                value=gop.split(new_vec),
            )
        )
        prev_vec = new_vec
    return table


def policy_query(table: PolicyTable, x: StatePoint, N: int,
                 model: PdmpModel) -> PolicyQueryResult:
    """Intervention time, restart point and branch for budget N at state x.

    Budget 0 never intervenes.  Otherwise this is one row of
    :meth:`PolicyTable.lookup_many`, the rule the simulator follows; the
    waiting branch reports the exact boundary-hit time at x.
    """
    if N < 0 or N > table.n_max:
        raise PolicyCoverageError(f"budget {N} outside table range 0..{table.n_max}")
    if N == 0:
        return PolicyQueryResult(math.inf, None, BRANCH_NONE)
    wait, r, y_idx = (a[0] for a in table.lookup_many(x.mode, np.array([x.zeta]), N))
    if wait:
        return PolicyQueryResult(float(model.flow.hit_fn[x.mode](x.zeta)), None, BRANCH_WAIT)
    return PolicyQueryResult(float(r), table.control_set[y_idx], BRANCH_INTERVENE)


def eval_Vk_exact(model: PdmpModel, h: FunctionStore, k: int, x: StatePoint,
                  eps: float, k_exact_max: int = 3, budget: int = 50_000) -> float:
    """Budget-k value by direct recursion, bypassing the value grid.

    Each level is one :func:`op_Lscript` step whose cost-to-go, the level
    below, is evaluated recursively wherever the kernel atoms and control
    points demand it (memoized on rounded positions); cost grows
    geometrically with k, guarded by an evaluation budget.
    """
    if k < 0:
        raise ModelParseError(f"budget k must be nonnegative; got {k}")
    if k > k_exact_max:
        raise ResourceBudgetError(
            f"exact recursion limited to k <= {k_exact_max}; got {k}"
        )
    check_positive(eps, "eps")
    memo: dict = {}
    calls = [0]

    def recurse(level: int, point: StatePoint) -> float:
        if level == 0:
            return h.eval(point)
        key = (level, point.mode, tuple(round(z / 1e-9) for z in point.zeta))
        hit = memo.get(key)
        if hit is not None:
            return hit
        calls[0] += 1
        if calls[0] > budget:
            raise ResourceBudgetError(
                f"exact recursion exceeded its evaluation budget ({budget})"
            )
        w = FunctionEvaluable(lambda p: recurse(level - 1, p))
        value = op_Lscript(model, w, point, eps).value
        memo[key] = value
        return value

    return float(recurse(k, x))
