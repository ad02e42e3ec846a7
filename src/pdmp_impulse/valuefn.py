"""No-impulse cost, approximate value functions, and policy fields.

The no-impulse cost h is the fixed point of the waiting-value operator and is
computed by iterating its grid discretization (a nonnegative linear map, so
the iteration contracts geometrically under discounting).  The budgeted value
functions V_k then follow the single-jump-or-intervention recursion: at every
grid node the strictly cheaper of "wait for the natural jump" and "intervene
at the eps-threshold time" is recorded together with the intervention time
and restart target.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .dynamics import IntensityPath
from .errors import (
    ExtrapolationError,
    ModelParseError,
    NumericalError,
    PolicyCoverageError,
    ResourceBudgetError,
)
from .model import PdmpModel, StatePoint
from .operators import (
    BRANCH_INTERVENE,
    BRANCH_WAIT,
    GOLDEN_RATIO_STEP,
    FlowProfile,
    FunctionEvaluable,
    JCurve,
    MinRelocationValue,
    _inf_from_curve,
    check_eps,
    collect_atom_records,
    eval_many,
)
from .quadrature import GL_ORDER, interval_nodes, panel_cumulative, panel_nodes

BRANCH_NONE = "no-intervention"


def _cell_weights(axes: tuple[np.ndarray, ...], pos: np.ndarray):
    """Multilinear cell indices and weights for an (n, d) position batch."""
    n, d = pos.shape
    base_idx = []
    frac = []
    for k in range(d):
        axis = axes[k]
        i = np.clip(np.searchsorted(axis, pos[:, k]) - 1, 0, len(axis) - 2)
        w = (pos[:, k] - axis[i]) / (axis[i + 1] - axis[i])
        base_idx.append(i)
        frac.append(w)
    shape = tuple(len(a) for a in axes)
    corners = 2 ** d
    flat = np.empty((n, corners), dtype=np.int64)
    coef = np.empty((n, corners))
    for corner in range(corners):
        ii = []
        cc = np.ones(n)
        for k in range(d):
            bit = (corner >> k) & 1
            ii.append(base_idx[k] + bit)
            cc = cc * (frac[k] if bit else (1.0 - frac[k]))
        flat[:, corner] = np.ravel_multi_index(ii, shape)
        coef[:, corner] = cc
    return flat, coef


def _coverage_box(lo, hi) -> tuple[list[float], list[float]]:
    """Coverage bounds widened by the slack that absorbs rounding at the
    region boundary; queries inside them are served, others extrapolate."""
    slack = [1e-9 * max(1.0, h - l) for l, h in zip(lo, hi)]
    return ([l - s for l, s in zip(lo, slack)],
            [h + s for h, s in zip(hi, slack)])


def _node_mesh(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """All nodes of one mode's grid as an (n, d) array, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


class FunctionStore:
    """Evaluable function on the state space: per-mode grids, multilinear
    interpolation, and a sup-norm bound.

    Queries may fall in the thin margin between the outermost nodes and the
    region boundary (linear extrapolation); anything beyond the closure raises
    :class:`ExtrapolationError`.
    """

    def __init__(self, axes: dict[int, tuple[np.ndarray, ...]],
                 values: dict[int, np.ndarray],
                 coverage: dict[int, tuple[tuple[float, ...], tuple[float, ...]]],
                 bound: float | None = None):
        self.axes = {m: tuple(np.asarray(a, dtype=float) for a in ax)
                     for m, ax in axes.items()}
        self.values = {m: np.asarray(v, dtype=float) for m, v in values.items()}
        self.coverage = coverage
        for m, v in self.values.items():
            if not np.all(np.isfinite(v)):
                raise NumericalError(f"non-finite stored values in mode {m}")
        if bound is None:
            bound = max(float(np.max(np.abs(v))) for v in self.values.values())
        self.bound = float(bound)

    def modes(self):
        return tuple(self.axes)

    def _check_coverage(self, mode: int, pos: np.ndarray):
        if mode not in self.axes:
            raise ExtrapolationError(f"mode {mode} not covered by this store")
        lo, hi = _coverage_box(*self.coverage[mode])
        below = pos < np.asarray(lo)
        above = pos > np.asarray(hi)
        if below.any() or above.any():
            k = int(np.argmax((below | above).any(axis=1)))
            raise ExtrapolationError(
                f"query (mode={mode}, zeta={tuple(pos[k])}) outside grid coverage"
            )

    def eval(self, x: StatePoint) -> float:
        return float(self.eval_many(x.mode, np.asarray(x.zeta)[None, :])[0])

    def eval_many(self, mode: int, pos: np.ndarray) -> np.ndarray:
        pos = np.atleast_2d(np.asarray(pos, dtype=float))
        self._check_coverage(mode, pos)
        axes = self.axes[mode]
        vals = self.values[mode].ravel()
        flat, coef = _cell_weights(axes, pos)
        return (vals[flat] * coef).sum(axis=1)


@dataclass(frozen=True)
class GridSpec:
    """How to lay out per-mode grids: node density per axis, pinned points,
    and the relative margin kept from the region boundary."""

    density: int = 200
    extra_points: dict[int, tuple[tuple[float, ...], ...]] | None = None
    margin_rel: float = 1e-6

    def build_axes(self, model: PdmpModel) -> dict[int, tuple[np.ndarray, ...]]:
        if self.density < 2:
            raise ModelParseError("grid density must be at least 2")
        axes: dict[int, tuple[np.ndarray, ...]] = {}
        pinned: dict[int, list[np.ndarray]] = {m: [] for m in model.mode_ids}
        for y in model.control_set:
            pinned[y.mode].append(np.asarray(y.zeta))
        for entry in model.kernel.entries:
            for atom in entry.atoms:
                if atom.is_static:
                    pos = np.asarray(atom.position(np.zeros(model.dim)))
                    pinned[atom.mode].append(pos)
        if self.extra_points:
            for m, pts in self.extra_points.items():
                for p in pts:
                    pinned[m].append(np.asarray(p, dtype=float))
        for m in model.mode_ids:
            region = model.region(m)
            mode_axes = []
            for k in range(model.dim):
                lo, hi = region.lower[k], region.upper[k]
                delta = self.margin_rel * (hi - lo)
                base = np.linspace(lo + delta, hi - delta, self.density)
                coords = [p[k] for p in pinned[m] if lo < p[k] < hi]
                axis = np.unique(np.concatenate([base, np.asarray(coords)]))
                mode_axes.append(axis)
            axes[m] = tuple(mode_axes)
        return axes

    def coverage(self, model: PdmpModel):
        return {
            m: (model.region(m).lower, model.region(m).upper)
            for m in model.mode_ids
        }


# Element budget of the batched solver: no (nodes, points) array along the
# flows holds more floats than this, which bounds its working set at any grid
# size.  Results do not depend on it.
CHUNK_ELEMENTS = 1 << 14


class _FlowChunk:
    """Flows from a run of same-mode grid nodes, on each node's uniform time
    grid over [0, t*].

    The arithmetic is :class:`FlowProfile`'s for one node, done for every node
    at once.  The chunk holds (nodes, n_t) grids; :meth:`quadrature` gives the
    (nodes, (n_t - 1) * GL_ORDER) arrays at the panel nodes for one block of
    :meth:`blocks` at a time.  A constant intensity stays a scalar.
    """

    def __init__(self, model: PdmpModel, mode: int, zeta: np.ndarray, n_t: int):
        self.model = model
        self.mode = mode
        self.zeta = zeta
        self.size = zeta.shape[0]
        self.alpha = model.discount
        hit = model.flow.hit_fn[mode]
        self.t_star = np.array([hit(z) for z in zeta.tolist()], dtype=float)
        unbounded = ~np.isfinite(self.t_star)
        if unbounded.any():
            x = StatePoint(mode, tuple(zeta[int(np.argmax(unbounded))]))
            raise NumericalError(
                f"flow from {x} never reaches the boundary; bounded exit times "
                "are required"
            )
        expr = model.intensity[mode]
        self.lam_const = expr.constant_value() if expr.is_constant else None
        self.ipaths = None if expr.is_constant else [
            IntensityPath(model, mode, z, t) for z, t in zip(zeta, self.t_star)
        ]
        # np.linspace(0, t*, n_t) for every node at once.
        self.step = self.t_star / (n_t - 1)
        self.tgrid = np.arange(n_t) * self.step[:, None]
        self.tgrid[:, -1] = self.t_star
        self.block = max(1, CHUNK_ELEMENTS // ((n_t - 1) * GL_ORDER))

    def blocks(self):
        """Node indices of consecutive blocks for :meth:`quadrature`."""
        for lo in range(0, self.size, self.block):
            yield np.arange(lo, min(lo + self.block, self.size))

    def quadrature(self, rows: np.ndarray):
        """Panel weights, flow positions, intensity, damping and running cost
        at the Gauss-Legendre panel nodes of nodes ``rows``."""
        s, wq = panel_nodes(self.tgrid[rows])
        pos = self.flow(s, rows)
        lam, cum = self.intensity(rows, s)
        damp = np.exp(-self.alpha * s - cum)
        del s, cum
        return wq, pos, lam, damp, self.running(pos)

    def damping(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """exp(-alpha*t - Lambda(t)) along the flows of ``rows``."""
        return np.exp(-self.alpha * t - self.intensity(rows, t)[1])

    def left_index(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """searchsorted(tgrid, t, side="right") - 1 per node, for t >= 0.

        The uniform step locates the grid cell to within one; comparing
        against the grid itself settles it.
        """
        last = self.tgrid.shape[1] - 1
        step = self.step[rows]
        guess = np.divide(t, step, out=np.zeros_like(t), where=step > 0)
        j = np.clip(np.floor(guess).astype(np.int64), 0, last)
        j -= self.tgrid[rows, j] > t
        j += (j < last) & (self.tgrid[rows, np.minimum(j + 1, last)] <= t)
        return j

    def flow(self, t: np.ndarray, rows=None) -> np.ndarray:
        """Positions after times t: one time per node gives (n, d), one row
        of times per node gives (n, k, d)."""
        zeta = self.zeta if rows is None else self.zeta[rows]
        if t.ndim == 2:
            zeta = zeta[:, None, :]
        return np.asarray(self.model.flow.position(self.mode, zeta, t))

    def intensity(self, rows: np.ndarray, t: np.ndarray):
        """Intensity and cumulative intensity along the flows of ``rows`` at
        times t (one time or one row of times per node)."""
        if self.ipaths is None:
            return self.lam_const, self.lam_const * t
        lam = np.empty_like(t)
        cum = np.empty_like(t)
        for k, i in enumerate(rows):
            lam[k] = self.ipaths[i].lam(t[k])
            cum[k] = self.ipaths[i].cumulative(t[k])
        return lam, cum

    def running(self, pos: np.ndarray) -> np.ndarray:
        flat = pos.reshape(-1, pos.shape[-1])
        return self.model.costs.running_along(self.mode, flat).reshape(pos.shape[:-1])


def _node_chunks(model: PdmpModel, axes: dict[int, tuple[np.ndarray, ...]],
                 n_t: int):
    """Mode, global index of the first node and node positions of
    consecutive same-mode chunks, in global node order."""
    if n_t < 2:
        raise ModelParseError("n_t must be at least 2")
    size = max(1, CHUNK_ELEMENTS // n_t)
    offset = 0
    for m in model.mode_ids:
        nodes = _node_mesh(axes[m])
        for lo in range(0, nodes.shape[0], size):
            yield m, offset + lo, nodes[lo:lo + size]
        offset += nodes.shape[0]


class GridOperator:
    """Discretized waiting-value operator on a fixed grid.

    Applying the operator to a grid function w is the affine map F + B w where
    F holds the per-node discounted running cost to the boundary and B the
    nonnegative weights coupling each node to the interpolation cells of the
    kernel atoms seen along its flow line.  B is stored as a CSR matrix; a
    static kernel gives at most (atoms + end atoms) * 2^d entries per row.
    """

    def __init__(self, model: PdmpModel, axes: dict[int, tuple[np.ndarray, ...]],
                 n_t: int = 512):
        self.model = model
        self.axes = axes
        self.n_t = n_t
        self.mode_offsets: dict[int, int] = {}
        self.mode_shapes: dict[int, tuple[int, ...]] = {}
        offset = 0
        for m in model.mode_ids:
            shape = tuple(len(a) for a in axes[m])
            self.mode_offsets[m] = offset
            self.mode_shapes[m] = shape
            offset += math.prod(shape)
        self.size = offset
        self.offset_vec = np.empty(offset)
        data, indices, counts = [], [], []
        for m, start, zeta in _node_chunks(model, axes, n_t):
            geo = _FlowChunk(model, m, zeta, n_t)
            for rows in geo.blocks():
                running, *block = self._block_rows(geo, rows, *geo.quadrature(rows))
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

    def _cells(self, mode: int, pos: np.ndarray):
        flat, coef = _cell_weights(self.axes[mode], pos)
        return flat + self.mode_offsets[mode], coef

    def _block_rows(self, geo: _FlowChunk, rows: np.ndarray, wq, pos, lam, damp, f):
        """F, then the CSR data, column indices and row lengths of B, on the
        rows of one block of nodes.

        Entries for one column add up in input order (interior atoms,
        quadrature node by node, then the end atoms), the order of the scalar
        per-node sums along a :class:`FlowProfile`.
        """
        model, mode = self.model, geo.mode
        n = rows.size
        nodes, cols, vals = [], [], []
        jump = wq * damp * lam
        static = model.kernel.static_atoms_for(mode)
        if static is not None:
            total = jump.sum(axis=1)
            for a_mode, a_pos, prob in static:
                flat, coef = self._cells(a_mode, np.asarray(a_pos, dtype=float)[None, :])
                nodes.append(np.repeat(np.arange(n), coef.shape[1]))
                cols.append(np.tile(flat[0], n))
                vals.append(((total * prob)[:, None] * coef).ravel())
        else:
            for rec in collect_atom_records(model, mode, pos.reshape(-1, pos.shape[-1])):
                flat, coef = self._cells(rec.mode, rec.positions)
                weight = jump.ravel()[rec.indices] * rec.prob
                nodes.append(np.repeat(rec.indices // wq.shape[1], coef.shape[1]))
                cols.append(flat.ravel())
                vals.append((coef * weight[:, None]).ravel())
        t_star = geo.t_star[rows]
        end_damp = geo.damping(rows, t_star)
        for rec in collect_atom_records(model, mode, geo.flow(t_star, rows)):
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

    def contraction_bound(self) -> float:
        """Largest row sum of B, the sup-norm Lipschitz constant of apply."""
        return float(np.asarray(self.matrix.sum(axis=1)).max(initial=0.0))

    def split(self, vec: np.ndarray) -> dict[int, np.ndarray]:
        out = {}
        for m in self.model.mode_ids:
            off = self.mode_offsets[m]
            size = int(np.prod(self.mode_shapes[m]))
            out[m] = vec[off : off + size].reshape(self.mode_shapes[m])
        return out

    def to_store(self, vec: np.ndarray, coverage) -> FunctionStore:
        return FunctionStore(self.axes, self.split(vec), coverage)


def compute_h(model: PdmpModel, store_spec: GridSpec | None = None,
              tol: float = 1e-8, max_iter: int = 10_000,
              n_t: int = 512) -> FunctionStore:
    """No-impulse cost on a grid, as the fixed point of the waiting operator.

    Iterates w <- F + B w from zero until the sup-node increment falls below
    tol * (1 + sup |w|); convergence is geometric because the expected jump
    discount is strictly below one.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ModelParseError(f"h tolerance must be positive and finite; got {tol!r}")
    spec = store_spec or GridSpec()
    axes = spec.build_axes(model)
    gop = GridOperator(model, axes, n_t=n_t)
    vec = np.zeros(gop.size)
    previous_gap = None
    for _ in range(max_iter):
        nxt = gop.apply(vec)
        gap = float(np.max(np.abs(nxt - vec)))
        vec = nxt
        if gap <= tol * (1.0 + float(np.max(np.abs(vec)))):
            return gop.to_store(vec, spec.coverage(model))
        previous_gap = gap
    estimate = gop.contraction_bound()
    raise NumericalError(
        f"fixed-point iteration did not converge in {max_iter} steps; "
        f"last increment {previous_gap!r}, contraction bound {estimate:.6f}"
    )


class _CurveChunk:
    """Intervention-value curves t -> J(v, w)(x, t) of every node of a chunk.

    ``values`` holds each curve on its node's time grid, as
    :class:`JCurve` does; :meth:`at` is :meth:`JCurve.at` for any subset of
    nodes, one time per node.
    """

    def __init__(self, geo: _FlowChunk, v: MinRelocationValue, w: FunctionStore):
        self.geo = geo
        self.v = v
        self.w = w
        static = geo.model.kernel.static_atoms_for(geo.mode)
        self.static_qw = None if static is None else float(sum(
            prob * w.eval(StatePoint(a_mode, tuple(a_pos)))
            for a_mode, a_pos, prob in static
        ))
        self.cum = np.empty(geo.tgrid.shape)
        self.values = np.empty(geo.tgrid.shape)
        for rows in geo.blocks():
            self.cum[rows] = panel_cumulative(*self._integrand(*geo.quadrature(rows)))
            tgrid = geo.tgrid[rows]
            self.values[rows] = (self.cum[rows] + geo.damping(rows, tgrid)
                                 * self.v_at(geo.flow(tgrid, rows)))
        self.v_start = self.v_at(geo.zeta)

    def _integrand(self, wq, pos, lam, damp, f):
        """Running cost plus jump term along the flows, with its weights.

        Taking one block's quadrature arrays as arguments frees them as soon
        as the block is integrated."""
        return damp * (f + lam * self.kernel_average(pos)), wq

    def v_at(self, pos: np.ndarray) -> np.ndarray:
        flat = pos.reshape(-1, pos.shape[-1])
        return self.v.eval_many(self.geo.mode, flat).reshape(pos.shape[:-1])

    def kernel_average(self, pos: np.ndarray):
        """Kernel average of w at pre-jump positions (..., d); for a static
        kernel the one scalar average."""
        if self.static_qw is not None:
            return self.static_qw
        flat = pos.reshape(-1, pos.shape[-1])
        out = np.zeros(flat.shape[0])
        for rec in collect_atom_records(self.geo.model, self.geo.mode, flat):
            out[rec.indices] += rec.prob * eval_many(self.w, rec.mode, rec.positions)
        return out.reshape(pos.shape[:-1])

    def at(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """J of nodes ``rows`` at times t, consistent with the grid values."""
        geo = self.geo
        out = np.empty(t.shape)
        past = t >= geo.t_star[rows]
        start = ~past & (t <= 0.0)
        out[past] = self.values[rows[past], -1]
        out[start] = self.v_start[rows[start]]
        inner = ~(past | start)
        if inner.any():
            rows, t = rows[inner], t[inner]
            left = geo.left_index(rows, t)
            s, wq = interval_nodes(geo.tgrid[rows, left], t)
            lam, cum = geo.intensity(rows, s)
            damp = np.exp(-geo.alpha * s - cum)
            pos = geo.flow(s, rows)
            partial = (wq * damp * (geo.running(pos) + lam * self.kernel_average(pos))).sum(axis=1)
            out[inner] = (self.cum[rows, left] + partial
                          + geo.damping(rows, t) * self.v_at(geo.flow(t, rows)))
        return out


def _golden_min_many(fn, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray):
    """:func:`_golden_min` in lockstep over curves; ``fn(i, t)`` evaluates
    curves i at times t.  A curve drops out once its interval is within tol."""
    a, b = lo.copy(), hi.copy()
    h = b - a
    best_t = np.empty(a.size)
    best_f = np.empty(a.size)
    short = np.nonzero(h <= tol)[0]
    if short.size:
        best_t[short] = 0.5 * (a[short] + b[short])
        best_f[short] = fn(short, best_t[short])
    act = np.nonzero(h > tol)[0]
    c = a + GOLDEN_RATIO_STEP * h
    d = b - GOLDEN_RATIO_STEP * h
    fc = np.empty(a.size)
    fd = np.empty(a.size)
    both = fn(np.concatenate([act, act]), np.concatenate([c[act], d[act]]))
    fc[act], fd[act] = both[: act.size], both[act.size:]
    left = fc[act] <= fd[act]
    best_t[act] = np.where(left, c[act], d[act])
    best_f[act] = np.where(left, fc[act], fd[act])
    while act.size:
        left = fc[act] < fd[act]
        lt, rt = act[left], act[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        h[act] = b[act] - a[act]
        c[lt] = a[lt] + GOLDEN_RATIO_STEP * h[lt]
        d[rt] = b[rt] - GOLDEN_RATIO_STEP * h[rt]
        f_new = fn(act, np.where(left, c[act], d[act]))
        fc[lt] = f_new[left]
        fd[rt] = f_new[~left]
        for probe, f_probe in ((c, fc), (d, fd)):
            better = act[f_probe[act] < best_f[act]]
            best_t[better] = probe[better]
            best_f[better] = f_probe[better]
        act = act[h[act] > tol[act]]
    return best_t, best_f


def _first_entry_many(fn, lo: np.ndarray, hi: np.ndarray, threshold: np.ndarray,
                      tol: np.ndarray) -> np.ndarray:
    """:func:`_first_entry` in lockstep over curves; ``fn(i, t)`` evaluates
    curves i at times t."""
    lo, hi = lo.copy(), hi.copy()
    every = np.arange(lo.size)
    at_lo = fn(every, lo) < threshold
    hi[at_lo] = lo[at_lo]
    act = every[~at_lo & (hi - lo > tol)]
    while act.size:
        mid = 0.5 * (lo[act] + hi[act])
        below = fn(act, mid) < threshold[act]
        hi[act[below]] = mid[below]
        lo[act[~below]] = mid[~below]
        act = act[hi[act] - lo[act] > tol[act]]
    return hi


def _jump_or_intervene(curve: _CurveChunk, wait_value: np.ndarray, eps: float,
                       time_tol_rel: float):
    """Branch flag, planned time, value and restart index at every node of a
    chunk: :func:`_inf_from_curve` across the chunk, then the strict
    comparison with the waiting value that ``value_iterate`` documents."""
    geo = curve.geo
    vals, tgrid, t_star = curve.values, geo.tgrid, geo.t_star
    nodes = np.arange(geo.size)
    last = tgrid.shape[1] - 1
    tol = np.maximum(time_tol_rel * np.maximum(t_star, 1e-30), 1e-300)
    l_star = np.argmin(vals, axis=1)
    grid_min = vals[nodes, l_star]
    t_ref, f_ref = _golden_min_many(
        curve.at, tgrid[nodes, np.maximum(l_star - 1, 0)],
        tgrid[nodes, np.minimum(l_star + 1, last)], tol,
    )
    refined = f_ref < grid_min
    inf_value = np.where(refined, f_ref, grid_min)
    t_min = np.where(refined, t_ref, tgrid[nodes, l_star])

    wait = wait_value < inf_value
    value = wait_value.copy()
    r = t_star.copy()
    act = np.nonzero(~wait)[0]
    if act.size:
        # The eps-threshold time: the first grid cell whose right end is below
        # the band, or else the refined cell up to t_min.
        threshold = inf_value[act] + eps
        below = vals[act] < threshold[:, None]
        idx = np.argmax(below, axis=1)
        on_grid = below[np.arange(act.size), idx]
        left_min = geo.left_index(act, t_min[act])
        lo = np.where(on_grid, tgrid[act, np.maximum(idx - 1, 0)], tgrid[act, left_min])
        hi = np.where(on_grid, tgrid[act, idx], t_min[act])
        r_act = np.zeros(act.size)
        bisect_at = np.nonzero(~on_grid | (idx > 0))[0]
        if bisect_at.size:
            sub = act[bisect_at]
            r_act[bisect_at] = _first_entry_many(
                lambda i, t: curve.at(sub[i], t), lo[bisect_at], hi[bisect_at],
                threshold[bisect_at], tol[sub],
            )
        r[act] = r_act
        value[act] = curve.at(act, r_act)
    y_index = curve.v.argmin_many(geo.mode, geo.flow(r))
    return wait, r, value, y_index


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
    _lists: dict = field(default_factory=dict, init=False, repr=False)
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

    def lookup(self, mode: int, zeta, budget: int) -> tuple[bool, float, int]:
        """Waiting flag, intervention time r and restart index for budget >= 1.

        The branch and the restart index are the nearest node's, the lowest
        cell corner winning ties.  r interpolates over the corners on that
        branch: the plain multilinear sum when all corners agree, the stored r
        when the nearest node agrees alone, else the weights renormalised over
        the agreeing corners.  Grids and branch fields are cached as plain
        lists on first use.
        """
        fields = self._lists.get((budget, mode))
        if fields is None:
            fields = self._lists[(budget, mode)] = self._plain_lists(mode, budget)
        axes, offsets, waits, rs, ys = fields
        if len(zeta) != len(axes):
            raise ExtrapolationError(
                f"query {tuple(zeta)} has {len(zeta)} coordinates; the table has {len(axes)}"
            )
        base = 0
        coefs = [1.0]
        for z, (axis, stride, last, z_lo, z_hi) in zip(zeta, axes):
            if not z_lo <= z <= z_hi:
                raise ExtrapolationError(
                    f"query (mode={mode}, zeta={tuple(zeta)}) outside grid coverage"
                )
            i = bisect.bisect_right(axis, z) - 1
            if i < 0:
                i = 0
            elif i > last:
                i = last
            t = (z - axis[i]) / (axis[i + 1] - axis[i])
            base += i * stride
            coefs = [c * f for f in (1.0 - t, t) for c in coefs]
        nearest = base + offsets[coefs.index(max(coefs))]
        wait = waits[nearest]
        total = weight = 0.0
        agreeing = 0
        for offset, c in zip(offsets, coefs):
            if waits[base + offset] == wait:
                total += rs[base + offset] * c
                weight += c
                agreeing += 1
        if agreeing == len(coefs):
            r = total
        elif agreeing == 1:
            r = rs[nearest]
        else:
            r = total / weight
        return wait, r, ys[nearest]

    def lookup_many(self, mode: int, zeta: np.ndarray, budget):
        """:meth:`lookup` for an (n, d) array of positions in one mode; budget
        is one int or an (n,) int array, each at least 1.

        The corner rule runs over arrays with the same product order,
        first-max tie rule and summation order, so every row gets the bits
        that :meth:`lookup` gives it.  Returns (wait, r, y_index) arrays.
        """
        fields = self._arrays.get(mode)
        if fields is None:
            fields = self._arrays[mode] = self._stacked_arrays(mode)
        axes, offsets, size, waits, rs, ys = fields
        if zeta.ndim != 2 or zeta.shape[1] != len(axes):
            raise ExtrapolationError(
                f"queries of shape {zeta.shape} do not fit the table's {len(axes)} coordinates"
            )
        budget = np.asarray(budget)
        if budget.size and not 1 <= budget.min() <= budget.max() <= len(self.stages):
            raise PolicyCoverageError(
                f"budgets outside the table's stages 1..{len(self.stages)}"
            )
        base = np.zeros(zeta.shape[0], np.int64) + (budget - 1) * size
        coefs = [1.0]
        for k, (axis, stride, last, z_lo, z_hi) in enumerate(axes):
            z = zeta[:, k]
            outside = ~((z_lo <= z) & (z <= z_hi))
            if outside.any():
                raise ExtrapolationError(
                    f"query (mode={mode}, zeta={tuple(zeta[np.argmax(outside)])}) "
                    "outside grid coverage"
                )
            i = np.clip(np.searchsorted(axis, z, side="right") - 1, 0, last)
            t = (z - axis[i]) / (axis[i + 1] - axis[i])
            base += i * stride
            coefs = [c * f for f in (1.0 - t, t) for c in coefs]
        nearest = base + offsets[np.argmax(np.stack(coefs), axis=0)]
        wait = waits[nearest]
        total = weight = 0.0
        agreeing = 0
        for offset, c in zip(offsets, coefs):
            agree = waits[base + offset] == wait
            total = np.where(agree, total + rs[base + offset] * c, total)
            weight = np.where(agree, weight + c, weight)
            agreeing = agreeing + agree
        r = total
        alone = agreeing == 1
        r[alone] = rs[nearest[alone]]
        partial = ~alone & (agreeing < len(offsets))
        r[partial] = total[partial] / weight[partial]
        return wait, r, ys[nearest]

    def _cell_layout(self, mode: int):
        """Per axis (grid, flat stride, last cell index, widened coverage
        bounds), and the flat offsets of a cell's corners: the layout both
        lookups walk."""
        if mode not in self.axes:
            raise ExtrapolationError(f"mode {mode} not covered by the policy table")
        axes = self.axes[mode]
        lo, hi = _coverage_box(*self.coverage[mode])
        strides = [math.prod(len(a) for a in axes[k + 1:]) for k in range(len(axes))]
        offsets = [0]
        for stride in strides:
            offsets = offsets + [o + stride for o in offsets]
        return list(zip(axes, strides, [len(a) - 2 for a in axes], lo, hi)), offsets

    def _plain_lists(self, mode: int, budget: int):
        axes, offsets = self._cell_layout(mode)
        stage = self._stage(budget)
        axes = [(axis.tolist(), *rest) for axis, *rest in axes]
        return (axes, offsets, stage.wait[mode].ravel().tolist(),
                stage.r[mode].ravel().tolist(), stage.y_index[mode].ravel().tolist())

    def _stacked_arrays(self, mode: int):
        """Branch fields of every stage concatenated, stage k at offset
        (k - 1) times the mode's node count."""
        axes, offsets = self._cell_layout(mode)

        def stacked(name):
            return np.concatenate([getattr(s, name)[mode].ravel() for s in self.stages])

        size = math.prod(len(a) for a in self.axes[mode])
        return (axes, np.asarray(offsets), size, stacked("wait"), stacked("r"),
                stacked("y_index"))


@dataclass(frozen=True)
class PolicyQueryResult:
    r: float
    y: StatePoint | None
    branch: str


def value_iterate(model: PdmpModel, h: FunctionStore, n_max: int, eps: float,
                  n_t: int = 512, time_tol_rel: float = 1e-6) -> PolicyTable:
    """Run the budgeted jump-or-intervene recursion from the no-impulse cost.

    At each node the waiting value (grid-linear operator) and the refined
    infimum of the intervention-value curve are compared strictly; the
    intervention branch records the eps-threshold time and the restart point
    minimizing relocation cost plus previous-stage value (ties to the lowest
    control index).
    """
    if n_max < 1:
        raise ModelParseError("n_max must be at least 1")
    check_eps(eps)
    gop = GridOperator(model, h.axes, n_t=n_t)
    coverage = h.coverage
    table = PolicyTable(
        model_hash=model.content_hash,
        eps=eps,
        n_max=n_max,
        axes=h.axes,
        coverage=coverage,
        control_set=model.control_set,
        h=h,
    )
    prev_vec = np.concatenate(
        [h.values[m].ravel() for m in model.mode_ids]
    )
    for _k in range(1, n_max + 1):
        wait_vec = gop.apply(prev_vec)
        prev_store = gop.to_store(prev_vec, coverage)
        phi = [prev_store.eval(y) for y in model.control_set]
        reloc = MinRelocationValue(model, phi)
        new_vec = np.empty(gop.size)
        wait_flags = np.empty(gop.size, dtype=bool)
        r_vec = np.empty(gop.size)
        y_vec = np.empty(gop.size, dtype=np.int64)
        for m, start, zeta in _node_chunks(model, h.axes, n_t):
            rows = slice(start, start + zeta.shape[0])
            wait_flags[rows], r_vec[rows], new_vec[rows], y_vec[rows] = _jump_or_intervene(
                _CurveChunk(_FlowChunk(model, m, zeta, n_t), reloc, prev_store),
                wait_vec[rows], eps, time_tol_rel,
            )
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
                 model: PdmpModel | None = None) -> PolicyQueryResult:
    """Intervention time, restart point and branch for budget N at state x.

    Budget 0 never intervenes.  Otherwise this is :meth:`PolicyTable.lookup`,
    the rule the simulator follows; given the model, the waiting branch
    reports the exact boundary-hit time at x.
    """
    if N < 0 or N > table.n_max:
        raise PolicyCoverageError(f"budget {N} outside table range 0..{table.n_max}")
    if N == 0:
        return PolicyQueryResult(math.inf, None, BRANCH_NONE)
    wait, r, y_idx = table.lookup(x.mode, x.zeta, N)
    if wait:
        if model is not None:
            r = model.flow.hit_time(x.mode, x.zeta)
        return PolicyQueryResult(float(r), None, BRANCH_WAIT)
    return PolicyQueryResult(float(r), table.control_set[y_idx], BRANCH_INTERVENE)


def eval_Vk_exact(model: PdmpModel, h: FunctionStore, k: int, x: StatePoint,
                  eps: float, n_t: int = 65, k_exact_max: int = 3,
                  budget: int = 50_000) -> float:
    """Budget-k value by direct recursion, bypassing the value grid.

    The previous-stage value is evaluated recursively wherever the kernel
    atoms and control points demand it (memoized on rounded positions); cost
    grows geometrically with k, guarded by an evaluation budget.
    """
    if k > k_exact_max:
        raise ResourceBudgetError(
            f"exact recursion limited to k <= {k_exact_max}; got {k}"
        )
    check_eps(eps)
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
        w = FunctionEvaluable(lambda p: recurse(level - 1, p), bound=np.inf)
        phi = [recurse(level - 1, y) for y in model.control_set]
        reloc = MinRelocationValue(model, phi)
        profile = FlowProfile(model, point, n_t=n_t)
        curve = JCurve(profile, reloc, w)
        detail = _inf_from_curve(curve, eps, 1e-6)
        wait = profile.wait_value(w)
        value = wait if wait < detail.inf_value else curve.at(detail.r_eps)
        memo[key] = value
        return value

    return float(recurse(k, x))
