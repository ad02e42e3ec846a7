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
    FlowProfile,
    FunctionEvaluable,
    JCurve,
    MinRelocationValue,
    _inf_from_curve,
)

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


class GridOperator:
    """Discretized waiting-value operator on a fixed grid.

    Applying the operator to a grid function w is the affine map F + B w where
    F holds the per-node discounted running cost to the boundary and B the
    nonnegative weights coupling each node to the interpolation cells of the
    kernel atoms seen along its flow line.
    """

    def __init__(self, model: PdmpModel, axes: dict[int, tuple[np.ndarray, ...]],
                 n_t: int = 512):
        self.model = model
        self.axes = axes
        self.n_t = n_t
        self.mode_offsets: dict[int, int] = {}
        self.mode_shapes: dict[int, tuple[int, ...]] = {}
        offset = 0
        nodes: list[StatePoint] = []
        for m in model.mode_ids:
            shape = tuple(len(a) for a in axes[m])
            self.mode_offsets[m] = offset
            self.mode_shapes[m] = shape
            pos = _node_mesh(axes[m])
            nodes.extend(StatePoint(m, tuple(p)) for p in pos)
            offset += pos.shape[0]
        self.nodes = nodes
        self.size = offset
        self.offset_vec = np.zeros(offset)
        self.matrix = np.zeros((offset, offset))
        self.t_star = np.array([model.flow.hit_time(x.mode, x.zeta) for x in nodes])
        for i, x in enumerate(nodes):
            profile = FlowProfile(model, x, n_t=n_t)
            self.offset_vec[i] = profile.running_grid[-1]
            row = self.matrix[i]
            for rec in profile.atom_records:
                weight = (profile.wq[rec.indices] * profile.damp_s[rec.indices]
                          * profile.lam_s[rec.indices] * rec.prob)
                flat, coef = _cell_weights(axes[rec.mode], rec.positions)
                flat = flat + self.mode_offsets[rec.mode]
                np.add.at(row, flat.ravel(),
                          (coef * weight[:, None]).ravel())
            end_damp = profile.damp_grid[-1]
            for point, prob in profile.end_atoms:
                flat, coef = _cell_weights(
                    axes[point.mode], np.asarray(point.zeta)[None, :]
                )
                flat = flat + self.mode_offsets[point.mode]
                np.add.at(row, flat.ravel(), (coef * end_damp * prob).ravel())

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.offset_vec + self.matrix @ vec

    def contraction_bound(self) -> float:
        return float(self.matrix.sum(axis=1).max())

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

    def _plain_lists(self, mode: int, budget: int):
        if mode not in self.axes:
            raise ExtrapolationError(f"mode {mode} not covered by the policy table")
        stage = self._stage(budget)
        lists = [a.tolist() for a in self.axes[mode]]
        lo, hi = _coverage_box(*self.coverage[mode])
        strides = [math.prod(len(a) for a in lists[k + 1:]) for k in range(len(lists))]
        offsets = [0]
        for stride in strides:
            offsets = offsets + [o + stride for o in offsets]
        axes = list(zip(lists, strides, [len(a) - 2 for a in lists], lo, hi))
        return (axes, offsets, stage.wait[mode].ravel().tolist(),
                stage.r[mode].ravel().tolist(), stage.y_index[mode].ravel().tolist())


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
    if eps <= 0:
        raise ModelParseError("eps must be positive")
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
        wait_flags = np.zeros(gop.size, dtype=bool)
        r_vec = np.empty(gop.size)
        y_vec = np.zeros(gop.size, dtype=np.int64)
        for i, x in enumerate(gop.nodes):
            profile = FlowProfile(model, x, n_t=n_t)
            curve = JCurve(profile, reloc, prev_store)
            detail = _inf_from_curve(curve, eps, time_tol_rel)
            if wait_vec[i] < detail.inf_value:
                wait_flags[i] = True
                r_here = profile.t_star
                new_vec[i] = wait_vec[i]
            else:
                r_here = detail.r_eps
                new_vec[i] = curve.at(r_here)
            r_vec[i] = r_here
            stop = np.asarray(model.flow.position(x.mode, np.asarray(x.zeta), r_here))
            _val, y_vec[i] = reloc.eval_with_argmin(x.mode, stop)
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
    if eps <= 0:
        raise ModelParseError("eps must be positive")
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
