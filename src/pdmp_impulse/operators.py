"""Dynamic-programming operators evaluated against arbitrary cost-to-go functions.

Naming follows the standard impulse-control operator calculus: F accumulates
discounted running cost along the flow, K is the value of waiting for the
natural jump, J the value of scheduling an intervention at a chosen time, M
the best immediate relocation over the finite control set, and the
script-L composition performs the single-jump-or-intervention minimization.

The jump-or-intervene curve has one implementation, batched over states, on
the one Gauss-Legendre panel rule along flows: :class:`FlowProfile` holds the
geometry along the flows from same-mode states on uniform time grids, with
the cumulative intensity integrated panel by panel, :class:`JCurve` the
intervention-value curves on them, :class:`CurveWindows` the few numbers per
state that the searches read (the cells around the grid argmin and around
the first grid value below minimum + eps), and :class:`CurveMinimum` refines
each infimum by golden-section search and bisects for the eps-threshold
time, in lockstep over a batch of windows, to TIME_TOL_REL of t*.
:func:`jump_or_intervene` is the one single-jump-or-intervention step on
them: ``valuefn.value_iterate`` runs it over batches of up to
``chunk_rows(2 * GL_ORDER)`` grid nodes joined by :func:`curve_batches`,
with waiting values from the grid operator, and :func:`op_Lscript` over one
state, with the waiting value from :meth:`JCurve.wait_value`; :func:`inf_J`
minimizes one state's curve by the same search.  The grid solve, these
one-state operators and ``valuefn.eval_Vk_exact`` lay every flow on the one
uniform time grid of FLOW_TIME_NODES points, so they share one
discretization.  The one-off :func:`op_F`, :func:`op_K` and :func:`op_J`
stay adaptive quadrature (relative tolerance 1e-10), as oracles.

Rates and costs are read in their one array form, on rows of positions:
``intensity_along``, ``running_along`` and ``intervention_along``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .dynamics import _check_start, _never_exits, cumulative_intensity, flow_cumulative, hit_time
from .errors import ModelParseError
from .model import PdmpModel, StatePoint
from .quadrature import GL_ORDER, interval_nodes, panel_cumulative, panel_nodes

BRANCH_WAIT = "wait"
BRANCH_INTERVENE = "intervene"

GOLDEN_RATIO_STEP = 0.5 * (3.0 - math.sqrt(5.0))

TIME_TOL_REL = 1e-6  # time tolerance of the curve searches, relative to t*

FLOW_TIME_NODES = 512  # points of the one uniform time grid over [0, t*] of every flow


class FunctionEvaluable:
    """Wrap a plain callable on StatePoint as an evaluable."""

    def __init__(self, fn: Callable[[StatePoint], float]):
        self._fn = fn

    def eval(self, x: StatePoint) -> float:
        return float(self._fn(x))


class ConstantEvaluable:
    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, x: StatePoint) -> float:
        return self.value

    def eval_many(self, mode: int, pos: np.ndarray) -> np.ndarray:
        return np.full(pos.shape[0], self.value)


class MinRelocationValue:
    """Best immediate relocation value x -> min_j { c(x, y_j) + phi[j] }.

    Well defined on the closure of the regions since the intervention cost is.
    """

    def __init__(self, model: PdmpModel, phi: Sequence[float]):
        if len(phi) != len(model.control_set):
            raise ModelParseError("phi must assign a value to every control point")
        self.model = model
        self.phi = tuple(float(p) for p in phi)

    def eval(self, x: StatePoint) -> float:
        return float(self.eval_many(x.mode, np.array([x.zeta]))[0])

    def _stacked(self, mode: int, pos: np.ndarray) -> np.ndarray:
        return np.stack(
            [
                self.model.costs.intervention_along(mode, pos, j) + self.phi[j]
                for j in range(len(self.phi))
            ],
            axis=0,
        )

    def eval_many(self, mode: int, pos: np.ndarray) -> np.ndarray:
        return self._stacked(mode, pos).min(axis=0)

    def argmin_many(self, mode: int, pos: np.ndarray) -> np.ndarray:
        """Best control index at each position; ties resolve to the lowest."""
        return self._stacked(mode, pos).argmin(axis=0)


def eval_many(w, mode: int, pos: np.ndarray) -> np.ndarray:
    """Vectorized evaluation with a scalar fallback for plain evaluables."""
    fast = getattr(w, "eval_many", None)
    if fast is not None:
        return np.asarray(fast(mode, pos), dtype=float)
    return np.array([w.eval(StatePoint(mode, tuple(p))) for p in np.atleast_2d(pos)])


@dataclass(frozen=True)
class InfJResult:
    """Result of minimizing the intervention-value curve over time."""

    inf_value: float
    r_eps: float
    attained_on_grid: bool


@dataclass(frozen=True)
class LscriptResult:
    value: float
    branch: str
    wait_value: float
    detail: InfJResult


# Element budget of the batched curve: no (states, points) array along the
# flows holds more floats than this, which bounds its working set at any grid
# size.  Results do not depend on it.
CHUNK_ELEMENTS = 1 << 14


def chunk_rows(points: int) -> int:
    """States per batch whose (states, points) arrays keep to the element
    budget."""
    return max(1, CHUNK_ELEMENTS // points)


class GridColumns:
    """Values of a (states, n_t) array on the states' time grids: the whole
    array, or per-state windows that keep the values at a few grid columns
    with those columns.  :meth:`take` reads either the same way."""

    def __init__(self, values: np.ndarray, columns: np.ndarray | None):
        self.values = values
        self.columns = columns

    def take(self, rows: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The value at grid column j of each state of ``rows``; a window
        must hold the column."""
        if self.columns is None:
            return self.values[rows, j]
        return self.values[rows, np.argmax(self.columns[rows] == j[:, None], axis=1)]


class FlowProfile:
    """Flows from a batch of same-mode states, on each state's uniform time
    grid over [0, t*].

    The profile holds (states, n_t) grids; :meth:`quadrature` gives the
    (states, (n_t - 1) * GL_ORDER) arrays at the Gauss-Legendre panel nodes
    for one block of :meth:`blocks` at a time.  A constant intensity or
    running cost stays a scalar, and flow positions at the nodes are computed
    only where a non-constant running cost or a kernel that moves with the
    pre-jump point reads them.  The states are taken as interior;
    :func:`state_profile` checks one first.
    """

    def __init__(self, model: PdmpModel, mode: int, zeta: np.ndarray, n_t: int):
        if n_t < 2:
            raise ModelParseError("n_t must be at least 2")
        self._bind(model, mode, zeta, n_t - 1)
        self.t_star = model.flow.hit_times(mode, zeta)
        unbounded = ~np.isfinite(self.t_star)
        if unbounded.any():
            raise _never_exits(mode, zeta[int(np.argmax(unbounded))])
        # np.linspace(0, t*, n_t) for every state at once.
        self.step = self.t_star / self.last
        self.tgrid = np.arange(n_t) * self.step[:, None]
        self.tgrid[:, -1] = self.t_star
        self.block = chunk_rows(self.last * GL_ORDER)
        self.cum_grid = None
        if self.lam_const is None:
            flow_cumulative(model, mode, zeta, self.t_star, check=True)
            cum = np.empty(self.tgrid.shape)
            for rows in self.blocks():
                s, wq = panel_nodes(self.tgrid[rows])
                cum[rows] = panel_cumulative(self.lam_at(self.flow(s, rows)), wq)
            self.cum_grid = GridColumns(cum, None)

    def _bind(self, model: PdmpModel, mode: int, zeta: np.ndarray, last: int):
        self.model = model
        self.mode = mode
        self.zeta = zeta
        self.size = zeta.shape[0]
        self.last = last
        self.alpha = model.discount
        self.lam_const = model.intensity[mode].constant
        self.f_const = model.costs.running[mode].constant
        # The intensity places its own nodes; positions feed only these.
        self.reads_positions = (self.f_const is None
                                or model.kernel.static_atoms_for(mode) is None)

    def blocks(self):
        """State indices of consecutive blocks for :meth:`quadrature`."""
        for lo in range(0, self.size, self.block):
            yield np.arange(lo, min(lo + self.block, self.size))

    def quadrature(self, rows: np.ndarray, nodes=None):
        """Weights, flow positions (None where nothing reads them),
        intensity, damping and running cost at Gauss-Legendre nodes along the
        flows of states ``rows``: their grids' panel nodes, or the given
        (nodes, weights)."""
        s, wq = panel_nodes(self.tgrid[rows]) if nodes is None else nodes
        pos = self.flow(s, rows) if self.reads_positions else None
        lam, cum = self.intensity(rows, s)
        damp = np.exp(-self.alpha * s - cum)
        del s, cum
        return wq, pos, lam, damp, self.f_const if self.f_const is not None else self.running(pos)

    def damping(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """exp(-alpha*t - Lambda(t)) along the flows of ``rows``."""
        return np.exp(-self.alpha * t - self.intensity(rows, t)[1])

    def grid_time(self, rows: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Time of grid point j on the grid of each state of ``rows``: j
        steps, and t* at the last point, the bits of ``tgrid``."""
        return np.where(j == self.last, self.t_star[rows], j * self.step[rows])

    def left_index(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """searchsorted(tgrid, t, side="right") - 1 per state, for t >= 0.

        The uniform step locates the grid cell to within one; comparing
        against the grid itself settles it.
        """
        last = self.last
        step = self.step[rows]
        guess = np.divide(t, step, out=np.zeros_like(t), where=step > 0)
        j = np.clip(np.floor(guess).astype(np.int64), 0, last)
        j -= self.grid_time(rows, j) > t
        j += (j < last) & (self.grid_time(rows, np.minimum(j + 1, last)) <= t)
        return j

    def flow(self, t: np.ndarray, rows=None) -> np.ndarray:
        """Positions after times t: one time per state gives (n, d), one row
        of times per state gives (n, k, d)."""
        zeta = self.zeta if rows is None else self.zeta[rows]
        if t.ndim == 2:
            zeta = zeta[:, None, :]
        return np.asarray(self.model.flow.position(self.mode, zeta, t))

    def intensity(self, rows: np.ndarray, t: np.ndarray):
        """Intensity and cumulative intensity along the flows of ``rows`` at
        times t (one time or one row of times per state); the cumulative
        intensity is the grid value left of t plus the Gauss-Legendre
        integral from there."""
        if self.lam_const is not None:
            return self.lam_const, self.lam_const * t
        each = np.broadcast_to(rows.reshape(-1, *(1,) * (t.ndim - 1)), t.shape).ravel()
        left = self.left_index(each, t.ravel())
        s, wq = interval_nodes(self.grid_time(each, left), t.ravel())
        cum = self.cum_grid.take(each, left) + (wq * self.lam_at(self.flow(s, each))).sum(axis=1)
        return self.lam_at(self.flow(t, rows)), cum.reshape(t.shape)

    def lam_at(self, pos: np.ndarray) -> np.ndarray:
        flat = pos.reshape(-1, pos.shape[-1])
        return self.model.intensity_along(self.mode, flat).reshape(pos.shape[:-1])

    def running(self, pos: np.ndarray) -> np.ndarray:
        flat = pos.reshape(-1, pos.shape[-1])
        return self.model.costs.running_along(self.mode, flat).reshape(pos.shape[:-1])


class FlowWindows(FlowProfile):
    """The flows of a :class:`CurveWindows` batch: the states, their t* and
    grid steps, and the cumulative intensity at the windows' columns only.
    It holds no time grid, so it serves evaluations inside the windows'
    cells, not :meth:`quadrature` over whole grids."""

    def __init__(self, like: FlowProfile, nodes: dict[str, np.ndarray]):
        self._bind(like.model, like.mode, nodes["zeta"], like.last)
        self.t_star = nodes["t_star"]
        self.step = nodes["step"]
        self.cum_grid = (None if like.cum_grid is None
                         else GridColumns(nodes["cum_grid"], nodes["columns"]))


def state_profile(model: PdmpModel, x: StatePoint) -> FlowProfile:
    """The flow profile of the single state x, which must be interior to its
    region, on the :data:`FLOW_TIME_NODES` grid."""
    _check_start(model, x.mode, x.zeta)
    return FlowProfile(model, x.mode, np.asarray([x.zeta], dtype=float), FLOW_TIME_NODES)


class JCurve:
    """Intervention-value curves t -> J(v, w)(x, t) from every state x of a
    flow profile.

    ``values`` holds each curve on its state's time grid; :meth:`at`
    evaluates any subset of the curves, one time per curve, consistently
    with the grid values, and :meth:`windows` cuts the curves down to what
    the searches of :class:`CurveMinimum` read.
    """

    def __init__(self, profile: FlowProfile, v, w):
        self.profile = profile
        self.v = v
        self.w = w
        static = profile.model.kernel.static_atoms_for(profile.mode)
        self.static_qw = None if static is None else float(sum(
            prob * w.eval(StatePoint(a_mode, a_pos)) for a_mode, a_pos, prob in static.atoms
        ))
        cum = np.empty(profile.tgrid.shape)
        self.values = np.empty(profile.tgrid.shape)
        for rows in profile.blocks():
            cum[rows] = panel_cumulative(*self._integrand(*profile.quadrature(rows)))
            tgrid = profile.tgrid[rows]
            self.values[rows] = (cum[rows] + profile.damping(rows, tgrid)
                                 * self.v_at(profile.flow(tgrid, rows)))
        self.cum = GridColumns(cum, None)
        self.end_value = self.values[:, -1]
        self.v_start = self.v_at(profile.zeta)

    def _integrand(self, wq, pos, lam, damp, f):
        """Running cost plus jump term along the flows, with its weights.

        Taking one block's quadrature arrays as arguments frees them as soon
        as the block is integrated."""
        return damp * (f + lam * self.kernel_average(pos)), wq

    def v_at(self, pos: np.ndarray) -> np.ndarray:
        flat = pos.reshape(-1, pos.shape[-1])
        return eval_many(self.v, self.profile.mode, flat).reshape(pos.shape[:-1])

    def kernel_average(self, pos: np.ndarray):
        """Kernel average of w at pre-jump positions (..., d); for a static
        kernel the one scalar average."""
        if self.static_qw is not None:
            return self.static_qw
        p = self.profile
        flat = pos.reshape(-1, pos.shape[-1])
        out = np.zeros(flat.shape[0])
        for rec in p.model.kernel.atom_records(p.mode, flat):
            out[rec.indices] += rec.prob * eval_many(self.w, rec.mode, rec.positions)
        return out.reshape(pos.shape[:-1])

    def wait_value(self) -> np.ndarray:
        """Expected discounted cost carrying w past the next natural jump,
        from every state: the curve's integral up to t* plus the damped
        :meth:`kernel_average` of w at the flows' end positions on the
        boundary."""
        p = self.profile
        return (self.cum.values[:, -1] + p.damping(np.arange(p.size), p.t_star)
                * self.kernel_average(p.flow(p.t_star)))

    def windows(self, eps: float) -> CurveWindows:
        """The curves' cell windows for an eps-threshold search."""
        return CurveWindows(self, eps, self.values.min(axis=1) + eps)

    def at(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """J of states ``rows`` at times t, consistent with the grid values."""
        p = self.profile
        out = np.empty(t.shape)
        past = t >= p.t_star[rows]
        start = ~past & (t <= 0.0)
        out[past] = self.end_value[rows[past]]
        out[start] = self.v_start[rows[start]]
        inner = ~(past | start)
        if inner.any():
            rows, t = rows[inner], t[inner]
            left = p.left_index(rows, t)
            wq, pos, lam, damp, f = p.quadrature(rows, interval_nodes(p.grid_time(rows, left), t))
            partial = (wq * damp * (f + lam * self.kernel_average(pos))).sum(axis=1)
            out[inner] = (self.cum.take(rows, left) + partial
                          + p.damping(rows, t) * self.v_at(p.flow(t, rows)))
        return out


class CurveWindows(JCurve):
    """J-curves cut down to the cells that the searches of
    :class:`CurveMinimum` probe, a few numbers per state.

    Per state: the grid argmin l* and the grid minimum; the entry j_a, the
    first grid index whose value is below the band (grid minimum + eps), and
    its value; the last grid value and the start value; and, at grid columns
    l*-1, l*, j_a-1 and j_a, the curve's cumulative integral and the
    cumulative intensity when it is not constant.  The golden-section search
    probes the two cells around l* and the threshold bisection the cell left
    of j_a, so :meth:`JCurve.at` serves them from the windows bit for bit as
    from the whole curves.  Windows of consecutive chunks of states
    :meth:`join` into one batch.
    """

    def __init__(self, curve: JCurve, eps: float, band: np.ndarray):
        p = curve.profile
        states = np.arange(p.size)
        l_star = np.argmin(curve.values, axis=1)
        entry = np.argmax(curve.values < band[:, None], axis=1)
        columns = np.stack([np.maximum(l_star - 1, 0), l_star, np.maximum(entry - 1, 0), entry],
                           axis=1)
        nodes = {
            "zeta": p.zeta, "t_star": p.t_star, "step": p.step, "columns": columns,
            "cum": np.take_along_axis(curve.cum.values, columns, axis=1),
            "end_value": curve.values[:, -1].copy(), "v_start": curve.v_start,
            "l_star": l_star, "grid_min": curve.values[states, l_star],
            "entry": entry, "entry_value": curve.values[states, entry],
        }
        if p.cum_grid is not None:
            nodes["cum_grid"] = np.take_along_axis(p.cum_grid.values, columns, axis=1)
        self._attach(curve, eps, nodes)

    @classmethod
    def join(cls, parts: Sequence[CurveWindows]) -> CurveWindows:
        """One batch of the windows of same-mode curves, in order."""
        batch = cls.__new__(cls)
        batch._attach(parts[0], parts[0].eps,
                      {k: np.concatenate([part.nodes[k] for part in parts]) for k in parts[0].nodes})
        return batch

    def _attach(self, like: JCurve, eps: float, nodes: dict[str, np.ndarray]):
        self.v = like.v
        self.w = like.w
        self.static_qw = like.static_qw
        self.eps = eps
        self.nodes = nodes
        self.profile = FlowWindows(like.profile, nodes)
        self.cum = GridColumns(nodes["cum"], nodes["columns"])
        self.end_value = nodes["end_value"]
        self.v_start = nodes["v_start"]

    def settle(self, rows: np.ndarray, band: np.ndarray) -> None:
        """Rebuild the windows of states ``rows`` from their whole curves,
        with the entry taken against their own ``band``.  Curves do not
        depend on the states built with them, so only the entry moves."""
        p = self.profile
        size = chunk_rows(p.last + 1)
        for lo in range(0, rows.size, size):
            sub = rows[lo:lo + size]
            curve = JCurve(FlowProfile(p.model, p.mode, p.zeta[sub], p.last + 1), self.v, self.w)
            fresh = CurveWindows(curve, self.eps, band[lo:lo + size])
            for key, values in self.nodes.items():
                values[sub] = fresh.nodes[key]


def _golden_min(fn, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray):
    """Golden-section minima of curves on [lo, hi] down to interval width
    tol, in lockstep; ``fn(i, t)`` evaluates curves i at times t.  A curve
    drops out once its interval is within tol."""
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


def _first_entry(fn, lo: np.ndarray, hi: np.ndarray, threshold: np.ndarray,
                 tol: np.ndarray) -> np.ndarray:
    """Bisect, in lockstep over curves, for the earliest time in (lo, hi]
    where each curve dips below its threshold, assuming it is below at hi;
    ``fn(i, t)`` evaluates curves i at times t."""
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


class CurveMinimum:
    """Infimum of every curve of a :class:`CurveWindows` batch, and on
    request the eps-threshold times.

    A curve is constant past t*, so its grid minimum refined by
    golden-section search over the two neighbouring cells gives ``value``;
    ``refined`` marks the curves where the search beat the grid.
    """

    def __init__(self, curve: CurveWindows):
        p = curve.profile
        self.curve = curve
        states = np.arange(p.size)
        l_star = curve.nodes["l_star"]
        grid_min = curve.nodes["grid_min"]
        self.tol = np.maximum(TIME_TOL_REL * np.maximum(p.t_star, 1e-30), 1e-300)
        t_ref, f_ref = _golden_min(
            curve.at, p.grid_time(states, np.maximum(l_star - 1, 0)),
            p.grid_time(states, np.minimum(l_star + 1, p.last)), self.tol,
        )
        self.refined = f_ref < grid_min
        self.value = np.where(self.refined, f_ref, grid_min)
        self.t_min = np.where(self.refined, t_ref, p.grid_time(states, l_star))

    def threshold_time(self, rows: np.ndarray) -> np.ndarray:
        """Earliest time at which the curves ``rows`` are strictly below
        their infimum plus eps, scanning upward from 0: bisected inside the
        first grid cell whose right end is below the band, or else inside
        the refined cell up to t_min.

        Every grid value before a window's entry is at least grid minimum +
        eps, hence at least the threshold, so the entry is the first cell
        below the threshold when its value is.  Otherwise refinement beat
        the grid by more than the band's slack, and the state's windows are
        settled against the threshold from its whole curve.
        """
        curve, p = self.curve, self.curve.profile
        threshold = self.value[rows] + curve.eps
        unsettled = curve.nodes["entry_value"][rows] >= threshold
        if unsettled.any():
            curve.settle(rows[unsettled], threshold[unsettled])
        idx = curve.nodes["entry"][rows]
        on_grid = curve.nodes["entry_value"][rows] < threshold
        left_min = p.left_index(rows, self.t_min[rows])
        lo = np.where(on_grid, p.grid_time(rows, np.maximum(idx - 1, 0)),
                      p.grid_time(rows, left_min))
        hi = np.where(on_grid, p.grid_time(rows, idx), self.t_min[rows])
        r = np.zeros(rows.size)
        bisect_at = np.nonzero(~on_grid | (idx > 0))[0]
        if bisect_at.size:
            sub = rows[bisect_at]
            r[bisect_at] = _first_entry(
                lambda i, t: curve.at(sub[i], t), lo[bisect_at], hi[bisect_at],
                threshold[bisect_at], self.tol[sub],
            )
        return r


def curve_batches(chunks, eps: float):
    """The cell windows of curve chunks, given as consecutive (first state,
    :class:`JCurve`) pairs, joined over each mode's consecutive chunks into
    batches of at most ``chunk_rows(2 * GL_ORDER)`` states: the most whose
    first golden-section probes keep to the element budget.  Yields (first
    state, :class:`CurveWindows`) pairs; each whole curve is freed once its
    windows are cut."""
    limit = chunk_rows(2 * GL_ORDER)
    batch, first = [], 0
    for start, curve in chunks:
        p = curve.profile
        if batch and (p.mode != batch[0].profile.mode or start + p.size - first > limit):
            yield first, CurveWindows.join(batch)
            batch = []
        if not batch:
            first = start
        batch.append(curve.windows(eps))
    if batch:
        yield first, CurveWindows.join(batch)


# --------------------------------------------------------------------------
# Operator evaluations


def _flow_integral(model: PdmpModel, x: StatePoint, cap: float, w=None):
    """Adaptive quadrature over [0, cap] of the damped running cost along the
    flow from x, plus the jump term lam * Qw when a cost-to-go w is given;
    returns the integral and the damping s -> exp(-alpha*s - Lambda(s)),
    Lambda in closed form for a constant intensity, else by
    :func:`cumulative_intensity`."""
    zeta = np.asarray(x.zeta)
    lam_const = model.intensity[x.mode].constant

    def damp(s: float) -> float:
        cum = lam_const * s if lam_const is not None else cumulative_intensity(model, x, s)
        return math.exp(-model.discount * s - cum)

    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, zeta, s))
        running = model.costs.running_along(x.mode, pos[None, :])[0]
        if w is None:
            return damp(s) * running
        point = StatePoint(x.mode, tuple(float(z) for z in pos))
        lam = model.intensity_along(x.mode, pos[None, :])[0]
        qw = op_Qw(model, w, point) if lam != 0.0 else 0.0
        return damp(s) * (running + lam * qw)

    if cap <= 0.0:
        return 0.0, damp
    value, _err = quad(integrand, 0.0, cap, epsabs=1e-13, epsrel=1e-10, limit=200)
    return value, damp


def op_F(model: PdmpModel, x: StatePoint, t: float) -> float:
    """Expected discounted running cost along the flow up to t (capped at t*)."""
    if t < 0:
        raise ModelParseError("t must be nonnegative")
    ts = hit_time(model, x)
    return float(_flow_integral(model, x, min(t, ts))[0])


def op_Qw(model: PdmpModel, w, pre: StatePoint) -> float:
    """Kernel average of w at a pre-jump point (finite atom sum, exact)."""
    return float(sum(
        rec.prob * w.eval(StatePoint(rec.mode, tuple(rec.positions[0].tolist())))
        for rec in model.kernel.atom_records(pre.mode, np.array([pre.zeta]))
    ))


def op_K(model: PdmpModel, w, x: StatePoint) -> float:
    """Value of waiting for the natural jump, carrying cost-to-go w."""
    ts = hit_time(model, x)
    inner, damp = _flow_integral(model, x, ts, w)
    end = np.asarray(model.flow.position(x.mode, np.asarray(x.zeta), ts))
    end_point = StatePoint(x.mode, tuple(float(z) for z in end))
    return float(inner + damp(ts) * op_Qw(model, w, end_point))


def op_M(model: PdmpModel, phi: Sequence[float], x: StatePoint) -> tuple[float, int]:
    """Cheapest immediate relocation from x; ties resolve to the lowest index."""
    if len(model.control_set) == 0:
        raise ModelParseError("control set is empty")
    costs = MinRelocationValue(model, phi)._stacked(x.mode, np.array([x.zeta]))[:, 0]
    j = int(np.argmin(costs))
    return float(costs[j]), j


def op_J(model: PdmpModel, v, w, x: StatePoint, t: float) -> float:
    """Value of intervening at time t (capped at t*), carrying v at the stop."""
    if t < 0:
        raise ModelParseError("t must be nonnegative")
    ts = hit_time(model, x)
    cap = min(t, ts)
    inner, damp = _flow_integral(model, x, cap, w)
    stop = np.asarray(model.flow.position(x.mode, np.asarray(x.zeta), cap))
    stop_point = StatePoint(x.mode, tuple(float(z) for z in stop))
    return float(inner + damp(cap) * v.eval(stop_point))


def check_positive(value: float, name: str) -> None:
    """Reject a tolerance such as eps that is not a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise ModelParseError(f"{name} must be positive and finite; got {value!r}")


def jump_or_intervene(curve: CurveWindows, wait_value: np.ndarray):
    """The single jump-or-intervention step at every state of a batch of
    curve windows.

    A state waits where its waiting value is strictly below the curve's
    infimum; elsewhere it intervenes at the eps-threshold time, which is
    searched only there.  Returns the branch flags, the planned times (t*
    when waiting), the values, the restart indices minimizing relocation
    cost at the stop points (lowest index on ties) and the
    :class:`CurveMinimum`.
    """
    low = CurveMinimum(curve)
    wait = wait_value < low.value
    value = wait_value.copy()
    r = curve.profile.t_star.copy()
    act = np.nonzero(~wait)[0]
    if act.size:
        r[act] = low.threshold_time(act)
        value[act] = curve.at(act, r[act])
    y_index = curve.v.argmin_many(curve.profile.mode, curve.profile.flow(r))
    return wait, r, value, y_index, low


_ONE_STATE = np.arange(1)


def _one_state_inf(low: CurveMinimum, r_eps: float) -> InfJResult:
    return InfJResult(inf_value=float(low.value[0]), r_eps=float(r_eps),
                      attained_on_grid=not low.refined[0])


def inf_J(model: PdmpModel, v, w, x: StatePoint, eps: float) -> InfJResult:
    """Minimize the intervention-value curve and locate its eps-threshold time.

    The curve is constant past t*, so a grid over [0, t*] plus golden-section
    refinement around the best cell finds the infimum; the threshold time is
    the earliest time (scanning upward from 0) where the curve is strictly
    below inf + eps, located by bisection inside its bracketing cell.  This
    is the search of :func:`jump_or_intervene`, on a one-state batch.
    """
    check_positive(eps, "eps")
    low = CurveMinimum(JCurve(state_profile(model, x), v, w).windows(eps))
    return _one_state_inf(low, low.threshold_time(_ONE_STATE)[0])


def op_Lscript(model: PdmpModel, w, x: StatePoint, eps: float) -> LscriptResult:
    """Single jump-or-intervention step from x: :func:`jump_or_intervene` on
    the one-state curve, with the waiting value from
    :meth:`JCurve.wait_value`.

    Returns the eps-approximate value, which exceeds the exact minimization
    by at most eps when the intervention branch wins; ``detail.r_eps`` is the
    eps-threshold time on either branch.
    """
    check_positive(eps, "eps")
    phi = [w.eval(y) for y in model.control_set]
    curve = JCurve(state_profile(model, x), MinRelocationValue(model, phi), w)
    wait_value = curve.wait_value()
    wait, r, value, _y_index, low = jump_or_intervene(curve.windows(eps), wait_value)
    # The step searches the threshold time only where intervening wins.
    r_eps = low.threshold_time(_ONE_STATE)[0] if wait[0] else r[0]
    return LscriptResult(value=float(value[0]),
                         branch=BRANCH_WAIT if wait[0] else BRANCH_INTERVENE,
                         wait_value=float(wait_value[0]), detail=_one_state_inf(low, r_eps))
