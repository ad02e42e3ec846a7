"""Scalar references, one state at a time, for code the package runs batched.

The package runs the jump-or-intervene curve batched over states
(``pdmp_impulse.operators``).  This module keeps the earlier per-state
implementation as the batching reference: :class:`FlowProfile`,
:class:`JCurve`, the scalar golden-section and bisection searches and
``_inf_from_curve``.  ``lscript`` and ``exact_value`` are the single
jump-or-intervention step and the exact budget-k recursion built on them.

:class:`FlowProfile` is not a reference for the cumulative intensity: it
integrates it by the package's one Gauss-Legendre panel rule, one state at a
time (the grid value left of t plus the integral from there), so that batched
and per-state results agree exactly.  The independent references for the
integrals along flows are adaptive quadrature: ``cumulative_intensity`` and
the one-off ``op_F``, ``op_K`` and ``op_J`` of the package.

It also keeps the earlier one-point policy lookup (``lookup``, the corner
rule of ``PolicyTable.lookup_many`` on plain lists), kernel claim
(``atoms_at``, the first entry whose closed box holds the point),
static-kernel atom list (``static_atoms``) and running cost at one point
(``running_at``, the model's expression on plain floats).
"""

from __future__ import annotations

import bisect
import math
from typing import Callable

import numpy as np

from pdmp_impulse.dynamics import hit_time
from pdmp_impulse.errors import ExtrapolationError, KernelCoverageError, NumericalError
from pdmp_impulse.model import AtomRecord, PdmpModel, StatePoint
from pdmp_impulse.operators import (
    BRANCH_INTERVENE,
    BRANCH_WAIT,
    GOLDEN_RATIO_STEP,
    FunctionEvaluable,
    InfJResult,
    LscriptResult,
    MinRelocationValue,
    eval_many,
)
from pdmp_impulse.quadrature import interval_nodes, panel_cumulative, panel_nodes


class FlowProfile:
    """Geometry along the flow from one state, on a uniform time grid.

    Holds Gauss-Legendre nodes per grid panel together with the damping
    factor exp(-alpha*s - Lambda(s)), the intensity, the running cost, and the
    kernel atoms at every node, so value curves for different cost-to-go
    functions reuse the same precomputation.
    """

    def __init__(self, model: PdmpModel, x: StatePoint, n_t: int = 512):
        self.model = model
        self.x = x
        self.alpha = model.discount
        self.t_star = hit_time(model, x)
        if not np.isfinite(self.t_star):
            raise NumericalError(
                f"flow from {x} never reaches the boundary; bounded exit times "
                "are required"
            )
        self.n_t = n_t
        self.zeta = np.asarray(x.zeta, dtype=float)
        self.lam_const = model.intensity[x.mode].constant
        self.tgrid = np.linspace(0.0, self.t_star, n_t)
        s, wq = panel_nodes(self.tgrid)
        self.s = s
        self.wq = wq
        pos = np.asarray(model.flow.position(x.mode, self.zeta, s))
        self.pos = pos if pos.ndim == 2 else pos[None, :]
        self.lam_s = self.lam_along(s)
        self.cum_grid = panel_cumulative(self.lam_s, wq)
        self.damp_s = np.exp(-self.alpha * s - self.cumulative(s))
        self.f_s = model.costs.running_along(x.mode, self.pos)
        self.damp_grid = np.exp(-self.alpha * self.tgrid - self.cumulative(self.tgrid))
        self.pos_grid = np.asarray(model.flow.position(x.mode, self.zeta, self.tgrid))
        self.running_grid = panel_cumulative(self.damp_s * self.f_s, wq)
        end = np.asarray(model.flow.position(x.mode, self.zeta, self.t_star))
        self.end_point = StatePoint(x.mode, tuple(float(v) for v in end))
        self.end_atoms = atoms_at(model, x.mode, end)
        self.static_atoms = static_atoms(model, x.mode)
        if self.static_atoms is None:
            self.atom_records = model.kernel.atom_records(x.mode, self.pos)
        else:
            self.atom_records = [
                AtomRecord(
                    np.arange(self.s.size),
                    a_mode,
                    np.broadcast_to(np.asarray(a_pos), (self.s.size, len(a_pos))),
                    prob,
                    j,
                )
                for j, (a_mode, a_pos, prob) in enumerate(self.static_atoms)
            ]

    # -- building blocks -------------------------------------------------

    def lam_along(self, s):
        """Intensity at the flow positions after times s."""
        pos = np.asarray(self.model.flow.position(self.x.mode, self.zeta, s))
        flat = pos.reshape(-1, pos.shape[-1])
        return self.model.intensity_along(self.x.mode, flat).reshape(pos.shape[:-1])

    def cumulative(self, t):
        """Lambda at times t by the package's panel rule: lam * t for a
        constant intensity, else the grid value left of t plus the
        Gauss-Legendre integral from there."""
        if self.lam_const is not None:
            return self.lam_const * t
        left = np.searchsorted(self.tgrid, t, side="right") - 1
        s, w = interval_nodes(self.tgrid[left], t)
        return self.cum_grid[left] + (w * self.lam_along(s)).sum(axis=-1)

    def _static_qw(self, w) -> float:
        return float(
            sum(
                prob * w.eval(StatePoint(a_mode, tuple(a_pos)))
                for a_mode, a_pos, prob in self.static_atoms
            )
        )

    def qw_at_nodes(self, w) -> np.ndarray:
        """Kernel average of w at every quadrature node along the flow."""
        if self.static_atoms is not None:
            return np.full(self.s.size, self._static_qw(w))
        out = np.zeros(self.s.size)
        for rec in self.atom_records:
            out[rec.indices] += rec.prob * eval_many(w, rec.mode, rec.positions)
        return out

    def qw_at_end(self, w) -> float:
        return float(sum(prob * w.eval(point) for point, prob in self.end_atoms))

    def qw_at_points(self, w, s_points: np.ndarray) -> np.ndarray:
        if self.static_atoms is not None:
            return np.full(len(s_points), self._static_qw(w))
        pos = np.asarray(
            self.model.flow.position(self.x.mode, np.asarray(self.x.zeta), s_points)
        )
        if pos.ndim == 1:
            pos = pos[None, :]
        out = np.zeros(len(s_points))
        for rec in self.model.kernel.atom_records(self.x.mode, pos):
            out[rec.indices] += rec.prob * eval_many(w, rec.mode, rec.positions)
        return out

    def damp_at(self, t: float) -> float:
        return math.exp(-self.alpha * t - float(self.cumulative(t)))

    def wait_value(self, w) -> float:
        """Expected discounted cost carrying w past the next natural jump."""
        qw = self.qw_at_nodes(w)
        inner = panel_cumulative(self.damp_s * (self.f_s + self.lam_s * qw), self.wq)[-1]
        return float(inner + self.damp_grid[-1] * self.qw_at_end(w))


class JCurve:
    """The intervention-value curve t -> J(v, w)(x, t) on a flow profile."""

    def __init__(self, profile: FlowProfile, v, w):
        self.profile = profile
        self.v = v
        self.w = w
        self._static_qw = (
            profile._static_qw(w) if profile.static_atoms is not None else None
        )
        qw = profile.qw_at_nodes(w)
        self._g_s = profile.damp_s * (profile.f_s + profile.lam_s * qw)
        self._cum = panel_cumulative(self._g_s, profile.wq)
        pos_grid = profile.pos_grid
        v_grid = eval_many(v, profile.x.mode, pos_grid)
        # The terminal grid point sits on the boundary; evaluate v there exactly.
        v_grid = np.asarray(v_grid, dtype=float)
        v_grid[-1] = v.eval(profile.end_point)
        self.values = self._cum + profile.damp_grid * v_grid

    @property
    def tgrid(self) -> np.ndarray:
        return self.profile.tgrid

    def at(self, t: float) -> float:
        """J at an arbitrary time, consistent with the grid values."""
        p = self.profile
        if t >= p.t_star:
            return float(self.values[-1])
        if t <= 0.0:
            flow_point = StatePoint(p.x.mode, p.x.zeta)
            return float(self.v.eval(flow_point))
        left = int(np.searchsorted(p.tgrid, t, side="right")) - 1
        base = self._cum[left]
        s_mini, w_mini = interval_nodes(float(p.tgrid[left]), t)
        pos = np.asarray(p.model.flow.position(p.x.mode, np.asarray(p.x.zeta), s_mini))
        lam = p.lam_along(s_mini)
        damp = np.exp(-p.alpha * s_mini - p.cumulative(s_mini))
        f_vals = p.model.costs.running_along(p.x.mode, pos)
        if self._static_qw is not None:
            qw = self._static_qw
        else:
            qw = p.qw_at_points(self.w, s_mini)
        partial = float(np.sum(w_mini * damp * (f_vals + lam * qw)))
        end_pos = np.asarray(p.model.flow.position(p.x.mode, np.asarray(p.x.zeta), t))
        v_val = self.v.eval(StatePoint(p.x.mode, tuple(float(z) for z in end_pos)))
        return float(base + partial + p.damp_at(t) * v_val)


def _golden_min(fn: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    """Golden-section minimum of fn on [lo, hi] down to interval width tol."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return mid, fn(mid)
    c = a + GOLDEN_RATIO_STEP * h
    d = b - GOLDEN_RATIO_STEP * h
    fc, fd = fn(c), fn(d)
    best_t, best_f = (c, fc) if fc <= fd else (d, fd)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + GOLDEN_RATIO_STEP * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = b - GOLDEN_RATIO_STEP * h
            fd = fn(d)
        if fc < best_f:
            best_t, best_f = c, fc
        if fd < best_f:
            best_t, best_f = d, fd
    return best_t, best_f


def _first_entry(curve: JCurve, lo: float, hi: float, threshold: float,
                 tol: float) -> float:
    """Bisect for the earliest time in (lo, hi] where the curve dips below
    threshold, assuming curve.at(hi) < threshold."""
    f_lo = curve.at(lo)
    if f_lo < threshold:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if curve.at(mid) < threshold:
            hi = mid
        else:
            lo = mid
    return hi


def _inf_from_curve(curve: JCurve, eps: float, time_tol_rel: float) -> InfJResult:
    vals = curve.values
    tgrid = curve.tgrid
    t_star = curve.profile.t_star
    tol = max(time_tol_rel * max(t_star, 1e-30), 1e-300)
    l_star = int(np.argmin(vals))
    grid_min = float(vals[l_star])
    lo = float(tgrid[max(l_star - 1, 0)])
    hi = float(tgrid[min(l_star + 1, len(tgrid) - 1)])
    t_ref, f_ref = _golden_min(curve.at, lo, hi, tol)
    if f_ref < grid_min:
        inf_value = f_ref
        t_min = t_ref
        attained_on_grid = False
    else:
        inf_value = grid_min
        t_min = float(tgrid[l_star])
        attained_on_grid = True

    threshold = inf_value + eps
    below = vals < threshold
    if below.any():
        idx = int(np.argmax(below))
        if idx == 0:
            r_eps = 0.0
        else:
            r_eps = _first_entry(curve, float(tgrid[idx - 1]), float(tgrid[idx]),
                                 threshold, tol)
    else:
        # The band is only entered inside the refined cell around the minimum.
        left_idx = int(np.searchsorted(tgrid, t_min, side="right")) - 1
        r_eps = _first_entry(curve, float(tgrid[left_idx]), t_min, threshold, tol)
    return InfJResult(inf_value=inf_value, r_eps=float(r_eps),
                      attained_on_grid=attained_on_grid)


def lscript(model: PdmpModel, w, x: StatePoint, eps: float,
            n_t: int = 512) -> LscriptResult:
    """Single jump-or-intervention step on the scalar curve."""
    phi = [w.eval(y) for y in model.control_set]
    reloc = MinRelocationValue(model, phi)
    profile = FlowProfile(model, x, n_t=n_t)
    curve = JCurve(profile, reloc, w)
    detail = _inf_from_curve(curve, eps, 1e-6)
    wait = profile.wait_value(w)
    if wait < detail.inf_value:
        return LscriptResult(value=float(wait), branch=BRANCH_WAIT,
                             wait_value=float(wait), detail=detail)
    value = curve.at(detail.r_eps)
    return LscriptResult(value=float(value), branch=BRANCH_INTERVENE,
                         wait_value=float(wait), detail=detail)


def exact_value(model: PdmpModel, h, k: int, x: StatePoint, eps: float,
                n_t: int = 65) -> float:
    """Budget-k value by direct recursion on the scalar curve, memoized on
    rounded positions."""
    memo: dict = {}

    def recurse(level: int, point: StatePoint) -> float:
        if level == 0:
            return h.eval(point)
        key = (level, point.mode, tuple(round(z / 1e-9) for z in point.zeta))
        if key not in memo:
            w = FunctionEvaluable(lambda p: recurse(level - 1, p))
            memo[key] = lscript(model, w, point, eps, n_t).value
        return memo[key]

    return float(recurse(k, x))


def lookup(table, mode: int, zeta, budget: int) -> tuple[bool, float, int]:
    """Waiting flag, intervention time r and restart index for budget >= 1.

    The branch and the restart index are the nearest node's, the lowest cell
    corner winning ties.  r interpolates over the corners on that branch: the
    plain multilinear sum when all corners agree, the stored r when the
    nearest node agrees alone, else the weights renormalised over the
    agreeing corners.
    """
    if mode not in table.axes:
        raise ExtrapolationError(f"mode {mode} not covered by the policy table")
    grid = [axis.tolist() for axis in table.axes[mode]]
    strides = [math.prod(len(a) for a in grid[k + 1:]) for k in range(len(grid))]
    offsets = [0]
    for stride in strides:
        offsets = offsets + [o + stride for o in offsets]
    lo, hi = table.coverage[mode]
    slack = [1e-9 * max(1.0, b - a) for a, b in zip(lo, hi)]
    axes = [(axis, stride, len(axis) - 2, a - s, b + s)
            for axis, stride, a, b, s in zip(grid, strides, lo, hi, slack)]
    stage = table._stage(budget)
    waits = stage.wait[mode].ravel().tolist()
    rs = stage.r[mode].ravel().tolist()
    ys = stage.y_index[mode].ravel().tolist()
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


def atoms_at(model: PdmpModel, mode: int, zeta) -> list[tuple[StatePoint, float]]:
    """Kernel atoms at one pre-jump point: those of the first entry of the
    mode whose closed box holds it."""
    for entry in model.kernel.entries:
        if entry.from_mode == mode and (entry.region is None or all(
                lo <= z <= hi for z, (lo, hi) in zip(zeta, entry.region))):
            cols = list(np.asarray(zeta, dtype=float))
            return [(StatePoint(a.mode, tuple(float(e({"zeta": cols})) for e in a.zeta_exprs)),
                     a.prob) for a in entry.atoms]
    raise KernelCoverageError(
        f"no kernel entry covers pre-jump point (mode={mode}, zeta={tuple(zeta)})"
    )


def static_atoms(model: PdmpModel, mode: int):
    """(mode, position, probability) of the atoms of a mode whose kernel is
    one region-free entry with no atom reading the pre-jump point, else None."""
    entries = [e for e in model.kernel.entries if e.from_mode == mode]
    if len(entries) != 1 or entries[0].region is not None or any(
            e.used for a in entries[0].atoms for e in a.zeta_exprs):
        return None
    return [(point.mode, point.zeta, prob)
            for point, prob in atoms_at(model, mode, (0.0,) * model.dim)]


def running_at(model: PdmpModel, mode: int, zeta) -> float:
    """Running cost at one position: the mode's compiled expression on plain
    floats, not the package's row form."""
    return float(model.costs.running[mode]({"zeta": [float(z) for z in zeta]}))
