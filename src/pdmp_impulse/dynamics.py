"""Flow evaluation, jump-time sampling and the one simulation loop.

The sojourn law combines a continuous hazard part (inverse-CDF via the
cumulative intensity along the flow) with an atom at the truncation cap.
Intensities that are constant along the flow get closed-form handling; smooth
non-constant intensities are integrated through a Chebyshev fit of the
intensity along the flow, with adaptive quadrature backing the one-off
operations.

A single step core and path loop simulate the budget-augmented process
(mode, position, budget, clock) in every dimension, on the model's scalar
flow maps over position tuples.  The uncontrolled process is that process at
budget 0, where the policy table is never consulted: :func:`simulate_uncontrolled`
and the controlled simulator run the same loop.
"""

from __future__ import annotations

import json
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError, NumericalError, PolicyCoverageError
from .model import PdmpModel, StatePoint

MAX_JUMPS = 1_000_000

NATURAL = "natural"
INTERVENTION = "intervention"


@dataclass(frozen=True)
class JumpEvent:
    """One jump of a simulated path; pre_jump may sit on the boundary."""

    time: float
    sojourn: float
    pre_jump: StatePoint
    post_jump: StatePoint
    boundary_hit: bool


@dataclass(frozen=True)
class PathRecord:
    start: StatePoint
    events: tuple[JumpEvent, ...]
    horizon: float
    discounted_running_cost: float

    def to_json_line(self) -> str:
        payload = {
            "start": [self.start.mode, list(self.start.zeta)],
            "horizon": self.horizon,
            "discounted_running_cost": self.discounted_running_cost,
            "events": [
                {
                    "time": e.time,
                    "sojourn": e.sojourn,
                    "pre": [e.pre_jump.mode, list(e.pre_jump.zeta)],
                    "post": [e.post_jump.mode, list(e.post_jump.zeta)],
                    "boundary_hit": e.boundary_hit,
                }
                for e in self.events
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def default_horizon(model: PdmpModel, tail_tol: float = 1e-6) -> float:
    """Simulation horizon leaving a discounted running-cost tail below tail_tol."""
    c_f = model.costs.running_bound
    if c_f <= 0:
        return 1.0
    return max(1.0, math.log(c_f / (model.discount * tail_tol)) / model.discount)


class IntensityPath:
    """Jump intensity along the flow started at one state.

    Offers vectorized intensity and cumulative-intensity evaluation plus the
    inverse map needed for sojourn sampling.  A constant intensity is handled
    in closed form; otherwise the intensity along the flow is fit with a
    Chebyshev series (escalating degree) whose antiderivative gives the
    cumulative intensity.
    """

    def __init__(self, model: PdmpModel, mode: int, zeta, t_star: float):
        self.mode = mode
        self.zeta = np.asarray(zeta, dtype=float)
        self.t_star = float(t_star)
        expr = model.intensity[mode]
        if expr.is_constant:
            self.const = expr.constant_value()
            self._cheb = None
            self._integ = None
            return
        self.const = None
        if not np.isfinite(t_star):
            raise NumericalError("cannot tabulate intensity along an unbounded flow line")
        flow = model.flow

        def lam_of(s):
            pos = np.asarray(flow.position(mode, self.zeta, s))
            if pos.ndim == 1:
                pos = pos[None, :]
            return model.intensity_along(mode, pos)

        span = max(t_star, 1e-12)
        probe = np.linspace(0.0, span, 101)
        target = lam_of(probe)
        scale = 1.0 + float(np.max(np.abs(target)))
        fit = None
        for deg in (16, 32, 64, 128):
            nodes = np.cos(np.pi * np.arange(deg + 1) / deg)  # Chebyshev extrema
            xs = 0.5 * span * (nodes + 1.0)
            cand = np.polynomial.chebyshev.Chebyshev.fit(
                xs, lam_of(xs), deg, domain=[0.0, span]
            )
            if float(np.max(np.abs(cand(probe) - target))) <= 1e-12 * scale:
                fit = cand
                break
        if fit is None:
            raise NumericalError(
                "intensity is not smooth enough along the flow for series integration"
            )
        self._cheb = fit
        self._integ = fit.integ(lbnd=0.0)

    def lam(self, s):
        if self.const is not None:
            return np.full_like(np.asarray(s, dtype=float), self.const)
        return self._cheb(np.asarray(s, dtype=float))

    def cumulative(self, s):
        if self.const is not None:
            return self.const * np.asarray(s, dtype=float)
        return self._integ(np.asarray(s, dtype=float))

    def invert(self, target: float, t_cap: float) -> float:
        """Smallest s with cumulative(s) == target, bracketed on [0, t_cap]."""
        if self.const is not None:
            return target / self.const
        return float(
            brentq(lambda t: float(self._integ(t)) - target, 0.0, t_cap, xtol=1e-12)
        )


class _SimRuntime:
    """Per-model scalar maps for the step core, in every dimension.

    Holds the flow's hit and position closures, the intensity and running
    cost per mode when they are constant (None otherwise), and for modes whose
    kernel is one region-free entry of static atoms, the cumulative atom
    probabilities with their targets.
    """

    def __init__(self, model: PdmpModel):
        self.model = model
        self.alpha = model.discount
        self.hit = model.flow.hit_fn
        self.position = model.flow.position_fn
        self.lam_const = {
            m: (e.constant_value() if e.is_constant else None)
            for m, e in model.intensity.items()
        }
        self.f_const = {
            m: (e.constant_value() if e.is_constant else None)
            for m, e in model.costs.running.items()
        }
        self.static_kernel = {}
        for m in model.mode_ids:
            atoms = model.kernel.static_atoms_for(m)
            self.static_kernel[m] = None if atoms is None else (
                list(accumulate(prob for _mode, _pos, prob in atoms)),
                [(a_mode, a_pos, j) for j, (a_mode, a_pos, _prob) in enumerate(atoms)],
            )

    def sample_sojourn(self, mode: int, zeta, t_cap: float, u: float) -> tuple[float, bool]:
        """Inverse-CDF sojourn draw truncated at t_cap, with an atom at t_cap.

        Survival is exp(-Lambda(t)) for t < t_cap; the remaining mass
        exp(-Lambda(t_cap)) sits on t_cap itself and is flagged.
        """
        if t_cap <= 0.0:
            return 0.0, True
        lam = self.lam_const[mode]
        if lam is not None:
            if u < math.exp(-lam * t_cap):
                return t_cap, True
            return -math.log(u) / lam, False
        ipath = IntensityPath(self.model, mode, zeta, t_cap)
        if u < math.exp(-float(ipath.cumulative(t_cap))):
            return t_cap, True
        return ipath.invert(-math.log(u), t_cap), False

    def post_jump(self, mode: int, pre, u: float) -> tuple[int, tuple[float, ...], int]:
        """Post-jump mode, position and atom index (within its kernel entry)
        by inverse CDF over the kernel atoms at the pre-jump position: the
        first atom whose cumulative probability exceeds u, the last one when
        rounding leaves u uncovered."""
        static = self.static_kernel[mode]
        if static is None:
            atoms = self.model.kernel.atoms_at(mode, pre)
            cdf = list(accumulate(prob for _point, prob in atoms))
            targets = [(point.mode, point.zeta, j) for j, (point, _prob) in enumerate(atoms)]
        else:
            cdf, targets = static
        j = bisect_right(cdf, u)
        return targets[j] if j < len(targets) else targets[-1]

    def segment_integral(self, mode: int, zeta, seg: float) -> float:
        """Discounted running cost of one flow segment, by adaptive quadrature."""
        alpha = self.alpha
        model = self.model

        def integrand(s):
            pos = np.asarray(model.flow.position(mode, zeta, s))
            return math.exp(-alpha * s) * model.costs.running_at(mode, pos)

        value, _err = quad(integrand, 0.0, seg, epsabs=1e-12, epsrel=1e-10, limit=200)
        return value


_runtime_cache: "weakref.WeakKeyDictionary[PdmpModel, _SimRuntime]" = weakref.WeakKeyDictionary()


def _runtime(model: PdmpModel) -> _SimRuntime:
    rt = _runtime_cache.get(model)
    if rt is None:
        rt = _SimRuntime(model)
        _runtime_cache[model] = rt
    return rt


def flow_at(model: PdmpModel, x: StatePoint, t: float) -> tuple[StatePoint, bool]:
    """Flow position after t; the returned flag marks arrival on the boundary."""
    if t < 0:
        raise DomainError("flow time must be nonnegative")
    ts = hit_time(model, x)
    if t > ts:
        if t - ts > 1e-12 * max(1.0, ts):
            raise DomainError(f"flow time {t} exceeds boundary-hit time {ts}")
        t = ts
    pos = np.asarray(model.flow.position(x.mode, x.zeta, t))
    return StatePoint(x.mode, tuple(float(v) for v in pos)), bool(t >= ts)


def hit_time(model: PdmpModel, x: StatePoint) -> float:
    """Exact time for the flow from x to reach the region boundary."""
    if not model.region(x.mode).contains_interior(x.zeta):
        raise DomainError(f"state {x} is not interior to its region")
    return model.flow.hit_time(x.mode, x.zeta)


def cumulative_intensity(model: PdmpModel, x: StatePoint, t: float) -> float:
    """Integral of the intensity along the flow from x over [0, t]."""
    ts = hit_time(model, x)
    if t < 0 or t > ts + 1e-12 * max(1.0, ts):
        raise DomainError(f"time {t} outside [0, t*(x)] = [0, {ts}]")
    t = min(t, ts)
    expr = model.intensity[x.mode]
    if expr.is_constant:
        return expr.constant_value() * t
    if t == 0.0:
        return 0.0

    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, x.zeta, s))
        return model.intensity_at(x.mode, pos)

    value, _err = quad(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-10, limit=200)
    return float(value)


def sample_sojourn(model: PdmpModel, x: StatePoint, u: float) -> tuple[float, bool]:
    """Map one uniform draw to a sojourn time; flags a boundary hit."""
    return _runtime(model).sample_sojourn(x.mode, x.zeta, hit_time(model, x), u)


def sample_post_jump(model: PdmpModel, pre: StatePoint, u: float) -> StatePoint:
    """Select the post-jump state by inverse CDF over the kernel atoms at pre."""
    mode, zeta, _atom = _runtime(model).post_jump(pre.mode, pre.zeta, u)
    return StatePoint(mode, zeta)


def _check_start(model: PdmpModel, mode: int, zeta) -> None:
    """Reject a start point whose mode is undeclared, whose dimension differs
    from the model's, or that is not interior to its region."""
    region = model.modes.get(mode)
    if region is None:
        raise DomainError(f"start mode {mode} is not declared by the model")
    if len(zeta) != model.dim:
        raise DomainError(
            f"start point {tuple(zeta)} has {len(zeta)} coordinates; "
            f"the model has {model.dim}"
        )
    if not region.contains_interior(zeta):
        raise DomainError(
            f"start point (mode={mode}, zeta={tuple(zeta)}) is not interior to its region"
        )


def _raw_step(rt: _SimRuntime, table, mode: int, zeta: tuple[float, ...], budget: int,
              rng: np.random.Generator):
    """One jump of the budget-augmented process from (mode, zeta) at clock 0.

    The sojourn is truncated at min(boundary-hit time, planned intervention
    time r); the table is consulted only while the budget is positive, and a
    waiting branch plans no intervention.  Returns (sojourn, kind, cap_hit,
    pre-jump position, post mode, post position, post budget, index), where
    index is the restart index of an intervention and the kernel-atom index
    of a natural jump.
    """
    ts = rt.hit[mode](zeta)
    intervene = False
    if budget:
        wait, r, y_idx = table.lookup(mode, zeta, budget)
        intervene = not wait and r < ts
    sojourn, cap_hit = rt.sample_sojourn(mode, zeta, r if intervene else ts, rng.random())
    pre = rt.position[mode](zeta, sojourn)
    if cap_hit and intervene:
        if y_idx < 0:
            raise PolicyCoverageError(
                f"intervention scheduled at (mode={mode}, zeta={zeta}) with no restart"
            )
        y = table.control_set[y_idx]
        return sojourn, INTERVENTION, True, pre, y.mode, y.zeta, budget - 1, y_idx
    post_mode, post_pos, atom = rt.post_jump(mode, pre, rng.random())
    return sojourn, NATURAL, cap_hit, pre, post_mode, post_pos, budget - 1 if budget else 0, atom


def _run_path(model: PdmpModel, table, x0: StatePoint, budget: int, horizon: float,
             rng: np.random.Generator, collect_events: bool):
    """The path loop of the budget-augmented process, started at clock 0.

    Running cost accrues up to the horizon (tail-truncation rule), exactly
    for mode-wise constant running cost and by adaptive quadrature otherwise.
    Intervention fees are never truncated, so stepping continues past the
    horizon until the budget is spent.  Returns (running cost, discounted
    fees, interventions, events); both lists hold (jump time, pre-jump mode,
    pre-jump budget, step) records, and events stays empty unless
    collect_events.
    """
    _check_start(model, x0.mode, x0.zeta)
    rt = _runtime(model)
    alpha, f_const = rt.alpha, rt.f_const
    mode, zeta = x0.mode, x0.zeta
    elapsed = running = fees = 0.0
    interventions: list[tuple] = []
    events: list[tuple] = []
    n_jumps = 0
    while True:
        step = _raw_step(rt, table, mode, zeta, budget, rng)
        sojourn, kind, _cap_hit, pre, post_mode, post_pos, post_budget, index = step
        jump_time = elapsed + sojourn
        seg = sojourn if jump_time < horizon else max(horizon - elapsed, 0.0)
        f0 = f_const[mode]
        if f0 is None:
            if seg > 0.0:
                running += math.exp(-alpha * elapsed) * rt.segment_integral(mode, zeta, seg)
        elif f0 != 0.0 and seg > 0.0:
            running += math.exp(-alpha * elapsed) * f0 * (1.0 - math.exp(-alpha * seg)) / alpha
        if kind == INTERVENTION:
            fee = model.costs.intervention(mode, pre, index)
            fees += math.exp(-alpha * jump_time) * fee
            interventions.append((jump_time, mode, budget, step))
        if collect_events:
            events.append((jump_time, mode, budget, step))
        elapsed = jump_time
        mode, zeta, budget = post_mode, post_pos, post_budget
        n_jumps += 1
        if n_jumps > MAX_JUMPS:
            raise NumericalError(
                f"more than {MAX_JUMPS} jumps; the model looks numerically explosive"
            )
        if elapsed >= horizon and budget == 0:
            return running, fees, interventions, events


def simulate_uncontrolled(
    model: PdmpModel,
    x0: StatePoint,
    horizon: float,
    rng: np.random.Generator,
    collect_events: bool = True,
) -> PathRecord:
    """Simulate the process without interventions up to the horizon.

    This is the budget-augmented process at budget 0.  Each step draws one
    uniform for the sojourn and one for the post-jump atom; events at or past
    the horizon are dropped.
    """
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    running, _fees, _interventions, steps = _run_path(model, None, x0, 0, horizon, rng,
                                                     collect_events)
    events = tuple(
        JumpEvent(time, sojourn, StatePoint(mode, pre), StatePoint(post_mode, post_pos),
                  cap_hit)
        for time, mode, _budget, (sojourn, _kind, cap_hit, pre, post_mode, post_pos,
                                  _post_budget, _atom) in steps
        if time < horizon
    )
    return PathRecord(x0, events, horizon, running)
