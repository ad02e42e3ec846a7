"""Dynamic-programming operators evaluated against arbitrary cost-to-go functions.

Naming follows the standard impulse-control operator calculus: F accumulates
discounted running cost along the flow, K is the value of waiting for the
natural jump, J the value of scheduling an intervention at a chosen time, M
the best immediate relocation over the finite control set, and the
script-L composition performs the single-jump-or-intervention minimization.

One-off operator calls use adaptive quadrature (relative tolerance 1e-10).
The infimum of J over time runs on a uniform time grid refined by
golden-section search, with the epsilon-threshold time located by bisection;
grid sweeps reuse :class:`FlowProfile`, which precomputes the geometry along
the flow from one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .dynamics import IntensityPath, hit_time
from .errors import KernelCoverageError, ModelParseError, NumericalError
from .model import PdmpModel, StatePoint
from .quadrature import interval_nodes, panel_cumulative, panel_nodes

BRANCH_WAIT = "wait"
BRANCH_INTERVENE = "intervene"

GOLDEN_RATIO_STEP = 0.5 * (3.0 - math.sqrt(5.0))


class FunctionEvaluable:
    """Wrap a plain callable on StatePoint as an evaluable with a sup bound."""

    def __init__(self, fn: Callable[[StatePoint], float], bound: float):
        self._fn = fn
        self.bound = float(bound)

    def eval(self, x: StatePoint) -> float:
        return float(self._fn(x))


class ConstantEvaluable:
    def __init__(self, value: float):
        self.value = float(value)
        self.bound = abs(self.value)

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
        finite = [abs(p) for p in self.phi if np.isfinite(p)]
        self.bound = model.costs.c_upper + (max(finite) if finite else 0.0)

    def eval_with_argmin(self, mode: int, zeta) -> tuple[float, int]:
        best, best_j = np.inf, -1
        for j in range(len(self.phi)):
            val = self.model.costs.intervention(mode, zeta, j) + self.phi[j]
            if val < best:
                best, best_j = val, j
        return float(best), best_j

    def eval(self, x: StatePoint) -> float:
        return self.eval_with_argmin(x.mode, x.zeta)[0]

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


@dataclass(frozen=True)
class AtomRecord:
    """Kernel atom evaluated along a batch of pre-jump positions; ``atom`` is
    its index within the kernel entry that claimed them."""

    indices: np.ndarray
    mode: int
    positions: np.ndarray
    prob: float
    atom: int


def collect_atom_records(model: PdmpModel, mode: int,
                         pos: np.ndarray) -> list[AtomRecord]:
    """Kernel atoms for a batch of same-mode pre-jump positions.

    Entries claim points first-match-wins; uncovered points raise a kernel
    coverage error.
    """
    n = pos.shape[0]
    claimed = np.zeros(n, dtype=bool)
    records: list[AtomRecord] = []
    for entry in model.kernel.entries:
        if entry.from_mode != mode:
            continue
        mask = entry.matches_many(pos) & ~claimed
        if not mask.any():
            continue
        idx = np.nonzero(mask)[0]
        sub = pos[idx]
        for j, atom in enumerate(entry.atoms):
            records.append(AtomRecord(idx, atom.mode, atom.positions(sub), atom.prob, j))
        claimed |= mask
    if not claimed.all():
        k = int(np.argmin(claimed))
        raise KernelCoverageError(
            f"no kernel entry covers point (mode={mode}, zeta={tuple(pos[k])})"
        )
    return records


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
        zeta = np.asarray(x.zeta, dtype=float)
        self.ipath = IntensityPath(model, x.mode, zeta, self.t_star)
        self.tgrid = np.linspace(0.0, self.t_star, n_t)
        s, wq = panel_nodes(self.tgrid)
        self.s = s
        self.wq = wq
        pos = np.asarray(model.flow.position(x.mode, zeta, s))
        self.pos = pos if pos.ndim == 2 else pos[None, :]
        lam_s = np.asarray(self.ipath.lam(s), dtype=float)
        cum_s = np.asarray(self.ipath.cumulative(s), dtype=float)
        self.lam_s = lam_s
        self.damp_s = np.exp(-self.alpha * s - cum_s)
        self.f_s = model.costs.running_along(x.mode, self.pos)
        cum_grid = np.asarray(self.ipath.cumulative(self.tgrid), dtype=float)
        self.damp_grid = np.exp(-self.alpha * self.tgrid - cum_grid)
        self.pos_grid = np.asarray(model.flow.position(x.mode, zeta, self.tgrid))
        self.running_grid = panel_cumulative(self.damp_s * self.f_s, wq)
        end = np.asarray(model.flow.position(x.mode, zeta, self.t_star))
        self.end_point = StatePoint(x.mode, tuple(float(v) for v in end))
        self.end_atoms = model.kernel.atoms_at(x.mode, end)
        self.static_atoms = model.kernel.static_atoms_for(x.mode)
        if self.static_atoms is None:
            self.atom_records = collect_atom_records(model, x.mode, self.pos)
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
        for rec in collect_atom_records(self.model, self.x.mode, pos):
            out[rec.indices] += rec.prob * eval_many(w, rec.mode, rec.positions)
        return out

    def damp_at(self, t: float) -> float:
        return math.exp(-self.alpha * t - float(self.ipath.cumulative(t)))

    def wait_value(self, w) -> float:
        """Expected discounted cost carrying w past the next natural jump."""
        qw = self.qw_at_nodes(w)
        inner = panel_cumulative(self.damp_s * (self.f_s + self.lam_s * qw), self.wq)[-1]
        return float(inner + self.damp_grid[-1] * self.qw_at_end(w))

    def expected_jump_discount(self) -> float:
        """E[exp(-alpha * S1)] for the sojourn law from this state."""
        inner = panel_cumulative(self.damp_s * self.lam_s, self.wq)[-1]
        return float(inner + self.damp_grid[-1])


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
        lam = np.asarray(p.ipath.lam(s_mini), dtype=float)
        cum = np.asarray(p.ipath.cumulative(s_mini), dtype=float)
        damp = np.exp(-p.alpha * s_mini - cum)
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


# --------------------------------------------------------------------------
# Operator evaluations


def _damping_factory(model: PdmpModel, x: StatePoint, t_star: float):
    ipath = IntensityPath(model, x.mode, np.asarray(x.zeta), t_star)

    def damp(s: float) -> float:
        return math.exp(-model.discount * s - float(ipath.cumulative(s)))

    return damp, ipath


def op_F(model: PdmpModel, x: StatePoint, t: float) -> float:
    """Expected discounted running cost along the flow up to t (capped at t*)."""
    if t < 0:
        raise ModelParseError("t must be nonnegative")
    ts = hit_time(model, x)
    cap = min(t, ts)
    if cap == 0.0:
        return 0.0
    damp, _ = _damping_factory(model, x, ts)
    zeta = np.asarray(x.zeta)

    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, zeta, s))
        return damp(s) * model.costs.running_at(x.mode, pos)

    value, _err = quad(integrand, 0.0, cap, epsabs=1e-13, epsrel=1e-10, limit=200)
    return float(value)


def op_Qw(model: PdmpModel, w, pre: StatePoint) -> float:
    """Kernel average of w at a pre-jump point (finite atom sum, exact)."""
    atoms = model.kernel.atoms_at(pre.mode, pre.zeta)
    return float(sum(prob * w.eval(point) for point, prob in atoms))


def op_K(model: PdmpModel, w, x: StatePoint) -> float:
    """Value of waiting for the natural jump, carrying cost-to-go w."""
    ts = hit_time(model, x)
    damp, ipath = _damping_factory(model, x, ts)
    zeta = np.asarray(x.zeta)

    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, zeta, s))
        point = StatePoint(x.mode, tuple(float(z) for z in pos))
        lam = model.intensity_at(x.mode, pos)
        qw = op_Qw(model, w, point) if lam != 0.0 else 0.0
        return damp(s) * (model.costs.running_at(x.mode, pos) + lam * qw)

    inner, _err = quad(integrand, 0.0, ts, epsabs=1e-13, epsrel=1e-10, limit=200)
    end = np.asarray(model.flow.position(x.mode, zeta, ts))
    end_point = StatePoint(x.mode, tuple(float(z) for z in end))
    return float(inner + damp(ts) * op_Qw(model, w, end_point))


def op_M(model: PdmpModel, phi: Sequence[float], x: StatePoint) -> tuple[float, int]:
    """Cheapest immediate relocation from x; ties resolve to the lowest index."""
    if len(model.control_set) == 0:
        raise ModelParseError("control set is empty")
    reloc = MinRelocationValue(model, phi)
    return reloc.eval_with_argmin(x.mode, x.zeta)


def op_J(model: PdmpModel, v, w, x: StatePoint, t: float) -> float:
    """Value of intervening at time t (capped at t*), carrying v at the stop."""
    if t < 0:
        raise ModelParseError("t must be nonnegative")
    ts = hit_time(model, x)
    cap = min(t, ts)
    damp, _ = _damping_factory(model, x, ts)
    zeta = np.asarray(x.zeta)

    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, zeta, s))
        point = StatePoint(x.mode, tuple(float(z) for z in pos))
        lam = model.intensity_at(x.mode, pos)
        qw = op_Qw(model, w, point) if lam != 0.0 else 0.0
        return damp(s) * (model.costs.running_at(x.mode, pos) + lam * qw)

    if cap > 0.0:
        inner, _err = quad(integrand, 0.0, cap, epsabs=1e-13, epsrel=1e-10, limit=200)
    else:
        inner = 0.0
    stop = np.asarray(model.flow.position(x.mode, zeta, cap))
    stop_point = StatePoint(x.mode, tuple(float(z) for z in stop))
    return float(inner + damp(cap) * v.eval(stop_point))


def check_eps(eps: float) -> None:
    """Reject an eps that is not a positive finite number."""
    if not (math.isfinite(eps) and eps > 0):
        raise ModelParseError(f"eps must be positive and finite; got {eps!r}")


def inf_J(model: PdmpModel, v, w, x: StatePoint, eps: float,
          n_t: int = 512, time_tol_rel: float = 1e-6) -> InfJResult:
    """Minimize the intervention-value curve and locate its eps-threshold time.

    The curve is constant past t*, so a grid over [0, t*] plus golden-section
    refinement around the best cell finds the infimum; the threshold time is
    the earliest time (scanning upward from 0) where the curve is strictly
    below inf + eps, located by bisection inside its bracketing cell.
    """
    check_eps(eps)
    profile = FlowProfile(model, x, n_t=n_t)
    curve = JCurve(profile, v, w)
    return _inf_from_curve(curve, eps, time_tol_rel)


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


def op_Lscript(model: PdmpModel, w, x: StatePoint, eps: float,
               n_t: int = 512) -> LscriptResult:
    """Single jump-or-intervention step: wait for the natural jump or plan an
    intervention at the eps-threshold time, whichever is strictly cheaper.

    Returns the eps-approximate value, which exceeds the exact minimization
    by at most eps when the intervention branch wins.
    """
    check_eps(eps)
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

