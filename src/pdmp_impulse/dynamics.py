"""Flow evaluation, jump-time sampling and the one simulation loop.

The sojourn law has a hazard part, sampled by inverting the cumulative
intensity Lambda along the flow, and an atom at the truncation cap.  Every
integral along a flow that the solver and both engines need runs one rule,
the Gauss-Legendre panels of :mod:`.quadrature` over rows of same-mode
positions: Lambda (:func:`flow_cumulative`), its inverse by safeguarded
Newton steps (:func:`flow_sojourns`) and the discounted running cost
(:func:`flow_running_cost`).  Constant rates keep their closed forms.
:func:`cumulative_intensity` stays adaptive quadrature, as an oracle.

Two engines simulate the budget-augmented process (mode, position, budget,
clock) in every dimension; the uncontrolled process is that process at
budget 0.  One path on a caller's Generator runs a scalar step core and path
loop over position tuples (:func:`simulate_uncontrolled`, the controlled
trajectories and single steps).  Every seeded batch, replicate r on
``default_rng([seed, r])``, runs :func:`lockstep_costs` over arrays: cost
estimates and the law checks.  Both read the policy through
:meth:`PolicyTable.lookup_many` and each model fact from one source, indexed
by :class:`_SimRuntime`: flow maps built from one set of formulas, constant
rates and the static-kernel table; other kernels go through
:meth:`KernelRuntime.claim`.

A path takes the uniforms of the caller's Generator in blocks of DRAW_BLOCK
and hands the Generator back exactly where one ``rng.random()`` call per
uniform would have left it, also when the path raises
(:class:`_PathUniforms`); a single step (:func:`.controlled.aug_step`) draws
one call at a time.  The scalar loop stays for one path, where a
one-replicate lockstep run measured 890 paths/s against its 38k without
events (43x, rm1 from (1, 2.0) on a 2-vCPU host, Generator creation
included; the README gives the command); it is also the lockstep engine's
oracle.
"""

from __future__ import annotations

import json
import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import length_hint

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericalError, PolicyCoverageError
from .model import PdmpModel, StatePoint
from .quadrature import panel_cumulative, panel_nodes
from .streams import entropy_key, fill_block, seed_states

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


TAIL_TOL = 1e-6
"""Bound on the discounted running-cost tail past :func:`default_horizon`."""


def default_horizon(model: PdmpModel) -> float:
    """Simulation horizon leaving a discounted running-cost tail below TAIL_TOL."""
    c_f = model.costs.running_bound
    if c_f <= 0:
        return 1.0
    return max(1.0, math.log(c_f / (model.discount * TAIL_TOL)) / model.discount)


FLOW_PANELS = 8
"""Uniform Gauss-Legendre panels on [0, t] for every integral along a flow
segment: the cumulative intensity, its inverse and the running cost."""


def _panel_integral(model: PdmpModel, mode: int, zeta: np.ndarray, t: np.ndarray,
                    integrand, panels: int) -> np.ndarray:
    """Integral of integrand(s, pos) over [0, t] along the flows from rows of
    same-mode positions zeta (n, d), or from one row, for each t (n,).  A
    row's value depends on that row alone."""
    s, w = panel_nodes(t[:, None] * np.linspace(0.0, 1.0, panels + 1))
    pos = model.flow.position(mode, zeta[:, None, :], s).reshape(-1, zeta.shape[1])
    return panel_cumulative(integrand(s.ravel(), pos).reshape(s.shape), w)[:, -1]


def flow_cumulative(model: PdmpModel, mode: int, zeta: np.ndarray, t: np.ndarray,
                    check: bool = False) -> np.ndarray:
    """Cumulative intensity Lambda(t) along the flows from rows zeta.  With
    check, twice the panels must agree to 1e-12, which an intensity with a
    kink along the flow fails."""
    lam = model.intensity[mode].constant
    if lam is not None:
        return lam * t
    if check and not np.isfinite(t).all():
        raise NumericalError("cannot integrate the intensity along an unbounded flow line")

    def intensity(s, pos):
        return model.intensity_along(mode, pos)

    total = _panel_integral(model, mode, zeta, t, intensity, FLOW_PANELS)
    if check and not np.allclose(total, _panel_integral(model, mode, zeta, t, intensity,
                                                        2 * FLOW_PANELS), rtol=1e-12, atol=1e-12):
        raise NumericalError("intensity is not smooth enough along the flow for panel integration")
    return total


def flow_running_cost(model: PdmpModel, mode: int, zeta: np.ndarray,
                      t: np.ndarray) -> np.ndarray:
    """Discounted running cost over [0, t] along the flows from rows zeta."""
    alpha, running = model.discount, model.costs.running_along
    return _panel_integral(model, mode, zeta, t,
                           lambda s, pos: np.exp(-alpha * s) * running(mode, pos), FLOW_PANELS)


def flow_sojourns(model: PdmpModel, mode: int, zeta: np.ndarray, cap: np.ndarray,
                  u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF sojourns for uniforms u along the flows from rows zeta,
    truncated at cap > 0 with the atom exp(-Lambda(cap)) on cap (flagged).
    Lambda(s) = -log u is solved in closed form for a constant intensity,
    else by Newton steps (the intensity is the derivative) kept inside a
    bisection bracket, rows in lockstep, to brentq's 1e-12 + 4 eps s."""
    total = flow_cumulative(model, mode, zeta, cap, check=True)
    hit = u < np.exp(-total)
    rows = np.flatnonzero(~hit)
    target = -np.log(u[rows])
    sojourn = cap.copy()
    lam = model.intensity[mode].constant
    if lam is not None:
        sojourn[rows] = target / lam
        return sojourn, hit
    lo, hi = np.zeros(rows.size), cap[rows]
    s = hi * (target / total[rows])
    act = np.arange(rows.size)
    while act.size:
        z, x = zeta[rows[act]], s[act]
        excess = flow_cumulative(model, mode, z, x) - target[act]
        lo[act] = np.where(excess < 0.0, x, lo[act])
        hi[act] = np.where(excess < 0.0, hi[act], x)
        rate = model.intensity_along(mode, model.flow.position(mode, z, x))
        new = x - np.divide(excess, rate, out=np.full(act.size, np.inf), where=rate > 0.0)
        new = np.where((new >= lo[act]) & (new <= hi[act]), new, 0.5 * (lo[act] + hi[act]))
        s[act] = new
        act = act[np.minimum(np.abs(new - x), hi[act] - lo[act]) > 1e-12 + 8.9e-16 * new]
    sojourn[rows] = s
    return sojourn, hit


class _SimRuntime:
    """Per-model index, by mode, of what the simulators read: the constant
    intensity and running cost (None where they vary) and the static-kernel
    table.  It derives no model fact.  ``step[mode]`` holds what one scalar
    step reads, so that it finds all of it in one lookup: the flow's scalar
    hit and position maps, the constant intensity, and the one-position
    samplers of the sojourn and the post-jump atom, built once per mode;
    in that order, (hit, lam, sojourn, position, post_jump)."""

    def __init__(self, model: PdmpModel):
        self.model = model
        self.lam_const = {m: e.constant for m, e in model.intensity.items()}
        self.f_const = {m: e.constant for m, e in model.costs.running.items()}
        self.static = {m: model.kernel.static_atoms_for(m) for m in model.mode_ids}
        self.step = {m: (model.flow.hit_fn[m], self.lam_const[m], _sojourn_sampler(model, m),
                         model.flow.position_fn[m],
                         _atom_sampler(model.kernel, m, self.static[m]))
                     for m in model.mode_ids}


def _sojourn_sampler(model: PdmpModel, mode: int):
    """sojourn(zeta, t_cap, u) -> (sojourn, cap hit): one sojourn of
    :func:`flow_sojourns` from position zeta of the mode, truncated at
    t_cap >= 0; a constant intensity keeps its closed form on the math
    module."""
    exp, log, lam = math.exp, math.log, model.intensity[mode].constant
    if lam is not None:
        def sojourn(zeta, t_cap: float, u: float) -> tuple[float, bool]:
            if t_cap <= 0.0:
                return 0.0, True
            if u < exp(-lam * t_cap):
                return t_cap, True
            return -log(u) / lam, False
        return sojourn

    def sojourn(zeta, t_cap: float, u: float) -> tuple[float, bool]:
        if t_cap <= 0.0:
            return 0.0, True
        s, hit = flow_sojourns(model, mode, np.array([zeta], dtype=float),
                               np.array([t_cap]), np.array([u]))
        return float(s[0]), bool(hit[0])
    return sojourn


def _atom_sampler(kernel, mode: int, static):
    """post_jump(pre, u) -> (post mode, post position, atom index): the draw
    of :func:`_draw_atoms` at one pre-jump position of the mode, from its
    static-kernel table when it has one."""
    if static is None:
        def post_jump(pre, u: float) -> tuple[int, tuple[float, ...], int]:
            post_mode, post_pos, atom = _draw_atoms(kernel, mode, np.array([pre]),
                                                    np.array([u]))
            return int(post_mode[0]), tuple(post_pos[0].tolist()), int(atom[0])
        return post_jump
    # Searching all but the last cumulative probability sends a uniform
    # that rounding leaves above them all to the last atom; so one atom
    # takes every uniform.
    cdf, draws, last = static.cdf, static.draws, len(static.cdf) - 1
    if not last:
        return lambda pre, u: draws[0]
    return lambda pre, u: draws[bisect_right(cdf, u, 0, last)]


def _draw_atoms(kernel, mode: int, pre: np.ndarray, u: np.ndarray):
    """Post-jump modes, positions and atom indices (within the claiming
    entry) at (n, d) same-mode pre-jump positions, by inverse CDF over each
    row's atoms: the first whose cumulative probability exceeds the row's
    uniform, the last when rounding leaves it uncovered."""
    post_mode = np.empty(pre.shape[0], dtype=np.int64)
    post_pos = np.empty_like(pre)
    atom = np.empty(pre.shape[0], dtype=np.int64)
    for entry, rows in kernel.claim(mode, pre):
        cdf = np.array(list(accumulate(a.prob for a in entry.atoms)))
        k = np.minimum(np.searchsorted(cdf, u[rows], side="right"), cdf.size - 1)
        atom[rows] = k
        for j, a in enumerate(entry.atoms):
            sel = rows[k == j]
            post_mode[sel] = a.mode
            post_pos[sel] = a.positions(pre[sel])
    return post_mode, post_pos, atom


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
    _check_start(model, x.mode, x.zeta)
    return model.flow.hit_fn[x.mode](x.zeta)


def cumulative_intensity(model: PdmpModel, x: StatePoint, t: float) -> float:
    """Integral of the intensity along the flow from x over [0, t]."""
    ts = hit_time(model, x)
    if t < 0 or t > ts + 1e-12 * max(1.0, ts):
        raise DomainError(f"time {t} outside [0, t*(x)] = [0, {ts}]")
    t = min(t, ts)
    lam = model.intensity[x.mode].constant
    if lam is not None:
        return lam * t
    if t == 0.0:
        return 0.0

    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, x.zeta, s))
        return model.intensity_along(x.mode, pos[None, :])[0]

    value, _err = quad(integrand, 0.0, t, epsabs=1e-14, epsrel=1e-10, limit=200)
    return float(value)


def sample_sojourn(model: PdmpModel, x: StatePoint, u: float) -> tuple[float, bool]:
    """Map one uniform draw to a sojourn time; flags a boundary hit."""
    t_star = hit_time(model, x)
    _hit, _lam, sojourn, _position, _post_jump = _runtime(model).step[x.mode]
    return sojourn(x.zeta, t_star, u)


def sample_post_jump(model: PdmpModel, pre: StatePoint, u: float) -> StatePoint:
    """Select the post-jump state by inverse CDF over the kernel atoms at pre,
    which may lie on the boundary of its region."""
    _check_point(model, pre.mode, pre.zeta, "pre-jump")
    *_, post_jump = _runtime(model).step[pre.mode]
    mode, zeta, _atom = post_jump(pre.zeta, u)
    return StatePoint(mode, zeta)


def _check_point(model: PdmpModel, mode: int, zeta, role: str):
    """Reject a point whose mode is undeclared or whose dimension differs
    from the model's, naming it by role; return the region of its mode."""
    region = model.modes.get(mode)
    if region is None:
        raise DomainError(f"{role} mode {mode} is not declared by the model")
    if len(zeta) != model.dim:
        raise DomainError(
            f"{role} point {tuple(zeta)} has {len(zeta)} coordinates; "
            f"the model has {model.dim}"
        )
    return region


def _check_start(model: PdmpModel, mode: int, zeta) -> None:
    """Reject a start point whose mode is undeclared, whose dimension differs
    from the model's, or that is not interior to its region."""
    if not _check_point(model, mode, zeta, "start").contains_interior(zeta):
        raise DomainError(
            f"start point (mode={mode}, zeta={tuple(zeta)}) is not interior to its region"
        )


def _check_horizon(horizon: float) -> None:
    """Reject a horizon that is not a finite nonnegative number."""
    if not (math.isfinite(horizon) and horizon >= 0):
        raise DomainError(f"horizon must be finite and nonnegative; got {horizon!r}")


def _never_exits(mode: int, zeta) -> NumericalError:
    """The error for a sojourn that never ends: a zero jump intensity on a
    flow that never reaches the boundary, with no intervention planned."""
    return NumericalError(
        f"flow from {StatePoint(mode, tuple(zeta))} never reaches the boundary; "
        "bounded exit times are required"
    )


def _raw_step(rt: _SimRuntime, table, mode: int, zeta: tuple[float, ...], budget: int,
              draw):
    """One jump of the budget-augmented process from (mode, zeta) at clock 0.

    The sojourn is truncated at min(boundary-hit time, planned intervention
    time r); the table is consulted only while the budget is positive, and a
    waiting branch plans no intervention.  draw() returns the next uniform:
    one for the sojourn, then one for the atom of a natural jump.  Returns
    (sojourn, kind, cap_hit, pre-jump position, post mode, post position,
    post budget, index), where index is the restart index of an intervention
    and the kernel-atom index of a natural jump.
    """
    hit, lam, sojourn_at, position, post_jump = rt.step[mode]
    ts = hit(zeta)
    intervene = False
    if budget:
        wait, r, y_idx = table.lookup_many(mode, np.array([zeta]), budget)
        r, y_idx = float(r[0]), int(y_idx[0])
        intervene = not wait[0] and r < ts
    cap = r if intervene else ts
    if lam == 0.0 and cap == math.inf:
        raise _never_exits(mode, zeta)
    sojourn, cap_hit = sojourn_at(zeta, cap, draw())
    pre = position(zeta, sojourn)
    if cap_hit and intervene:
        if y_idx < 0:
            raise PolicyCoverageError(
                f"intervention scheduled at (mode={mode}, zeta={zeta}) with no restart"
            )
        y = table.control_set[y_idx]
        return sojourn, INTERVENTION, True, pre, y.mode, y.zeta, budget - 1, y_idx
    post_mode, post_pos, atom = post_jump(pre, draw())
    return sojourn, NATURAL, cap_hit, pre, post_mode, post_pos, budget - 1 if budget else 0, atom


DRAW_BLOCK = 64
"""Uniforms computed at a time: of a lockstep replicate's stream, and of a
caller's Generator by one path.  No result depends on it."""


class _PathUniforms:
    """The uniforms of one path on a caller's Generator, taken from blocks of
    ``rng.random(DRAW_BLOCK)``, which for numpy's bit generators holds the
    doubles of as many single ``rng.random()`` calls.  The first block is
    fetched at the first draw, after the Generator's state is saved;
    :meth:`hand_back` restores that state and redraws the uniforms used, so
    the Generator ends where single draws would have left it.  Anything else
    that draws from the Generator while the path runs has its draws replayed
    or lost.  Only a ``numpy.random.Generator`` can be drawn from
    (TypeError at the first draw otherwise)."""

    __slots__ = ("rng", "state", "blocks", "block", "draw")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.state = None
        self.blocks = 0
        self.block = None
        # chain's C iteration over each block's list is the cheap per-draw call.
        self.draw = chain.from_iterable(self._blocks()).__next__

    def _blocks(self):
        rng = self.rng
        if not isinstance(rng, np.random.Generator):
            raise TypeError(f"a path draws from a numpy Generator; got {type(rng).__name__}")
        self.state = rng.bit_generator.state
        while True:
            self.block = iter(rng.random(DRAW_BLOCK).tolist())
            self.blocks += 1
            yield self.block

    def hand_back(self) -> None:
        if self.state is not None:
            used = self.blocks * DRAW_BLOCK - length_hint(self.block)
            self.rng.bit_generator.state = self.state
            for start in range(0, used, DRAW_BLOCK):
                self.rng.random(min(DRAW_BLOCK, used - start))


def _run_path(model: PdmpModel, table, x0: StatePoint, budget: int, horizon: float,
             rng: np.random.Generator, collect_events: bool):
    """The path loop of the budget-augmented process, started at clock 0.

    Running cost accrues up to the horizon (tail-truncation rule), exactly
    for mode-wise constant running cost and by :func:`flow_running_cost`
    otherwise.
    Intervention fees are never truncated, so stepping continues past the
    horizon until the budget is spent.  Returns (running cost, discounted
    fees, interventions, events); both lists hold (jump time, pre-jump mode,
    pre-jump budget, step) records, and events stays empty unless
    collect_events.  Uniforms come from :class:`_PathUniforms`, and rng is
    handed back as single draws would leave it, also when the path raises.
    """
    _check_start(model, x0.mode, x0.zeta)
    _check_horizon(horizon)
    rt = _runtime(model)
    alpha, f_const = model.discount, rt.f_const
    mode, zeta = x0.mode, x0.zeta
    elapsed = running = fees = 0.0
    interventions: list[tuple] = []
    events: list[tuple] = []
    n_jumps = 0
    uniforms = _PathUniforms(rng)
    draw = uniforms.draw
    try:
        while True:
            step = _raw_step(rt, table, mode, zeta, budget, draw)
            sojourn, kind, _cap_hit, pre, post_mode, post_pos, post_budget, index = step
            jump_time = elapsed + sojourn
            seg = sojourn if jump_time < horizon else max(horizon - elapsed, 0.0)
            f0 = f_const[mode]
            if f0 is None:
                if seg > 0.0:
                    running += math.exp(-alpha * elapsed) * float(flow_running_cost(
                        model, mode, np.array([zeta], dtype=float), np.array([seg]))[0])
            elif f0 != 0.0 and seg > 0.0:
                running += math.exp(-alpha * elapsed) * f0 * (1.0 - math.exp(-alpha * seg)) / alpha
            if kind == INTERVENTION:
                fee = float(model.costs.intervention_along(mode, np.array([pre]), index)[0])
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
    finally:
        uniforms.hand_back()


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
    the horizon are dropped.  The uniforms are those of one ``rng.random()``
    call each, and rng is left, also when the path raises, in the state
    those calls would have left it; a start point or horizon that is refused
    draws none.  rng must be a ``numpy.random.Generator`` that nothing else
    draws from while the path runs: the path rewinds it at the end.
    """
    if not horizon > 0:
        raise DomainError(f"horizon must be positive; got {horizon!r}")
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


# --------------------------------------------------------------------------
# Lockstep Monte Carlo

BATCH_REPLICATES = 2048
"""Replicates that :func:`lockstep_costs` steps together over arrays; on rm1,
2048 ran twice the paths/s of 512, and larger batches gained no more.  No
result depends on it: every replicate keeps its own stream and arithmetic."""

def _first_step_dtype(dim: int) -> np.dtype:
    """Record of a replicate's first jump, as :func:`_raw_step` returns it:
    the sojourn, whether it was an intervention, whether the sojourn hit its
    cap, the restart index of an intervention or the atom index of a natural
    jump, and the post-jump mode, position and budget."""
    return np.dtype([("sojourn", float), ("intervened", bool), ("cap_hit", bool),
                     ("index", np.int64), ("post_mode", np.int64),
                     ("post_pos", float, (dim,)), ("post_budget", np.int64)])


@dataclass(frozen=True)
class ReplicateCosts:
    """Per-replicate outcome of :func:`lockstep_costs`, in replicate order:
    costs and counts, the first jump (fields of :func:`_first_step_dtype`),
    and in ``tau[r, i]`` the time of the (i+1)-th intervention, +inf if it
    never happens."""

    running: np.ndarray
    fees: np.ndarray
    interventions: np.ndarray
    jumps: np.ndarray
    first: np.ndarray
    tau: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.running + self.fees


class _Streams:
    """Uniform streams of one lockstep batch, held as arrays and addressed by
    slot: row j, never moved, draws the doubles of
    ``np.random.default_rng([*key, reps[j]])`` in blocks of DRAW_BLOCK, which
    :mod:`.streams` computes in place for all spent rows at once from their
    PCG64 states.  Each row sees the stream the single-path simulator would.
    The first block of the first row is checked against numpy's own
    generator, so a numpy release that changes SeedSequence or PCG64 fails
    loudly instead of changing every estimate.
    """

    def __init__(self, key, reps: np.ndarray):
        key = entropy_key(key)
        self.state, self.inc = seed_states(key, reps)
        self.buf = np.empty((reps.size, DRAW_BLOCK))
        fill_block(self.state, self.inc, self.buf)
        self.cur = np.zeros(reps.size, dtype=np.int64)
        if reps.size:
            want = np.random.default_rng([*key, int(reps[0])]).random(DRAW_BLOCK)
            if not np.array_equal(want.view(np.uint64), self.buf[0].view(np.uint64)):
                raise NumericalError(
                    f"replicate streams differ from default_rng([*key, r]) of numpy "
                    f"{np.__version__}; its SeedSequence or PCG64 has changed"
                )

    def draw(self, slots: np.ndarray) -> np.ndarray:
        """The next uniform of each of the given rows (distinct slots)."""
        at = self.cur[slots]
        spent = at == DRAW_BLOCK
        if spent.any():
            fill_block(self.state, self.inc, self.buf, slots[spent])
            at[spent] = 0
        self.cur[slots] = at + 1
        return self.buf[slots, at]


def lockstep_costs(model: PdmpModel, table, x0: StatePoint, budget: int, horizon: float,
                   seed, replicates: int) -> ReplicateCosts:
    """Run replicates 0..replicates-1 of the path loop of :func:`_run_path`
    from x0 at the given budget, replicate r on ``default_rng([seed, r])``;
    seed may also be a sequence of words, such as (seed, salt), for
    ``default_rng([seed, salt, r])``.

    Batches of BATCH_REPLICATES paths step in lockstep over arrays of (stream
    slot, position, budget, elapsed, running cost, fees, interventions), kept
    sorted by mode; a path leaves its batch once it is past the horizon with
    its budget spent, so at horizon 0 it runs max(1, budget) jumps.  Each path makes the draws of the
    single-path loop in the same order (the sojourn, then the atom on a
    natural jump) with the same arithmetic, so it takes the same jumps and
    interventions and its costs agree to a few ulp (numpy's exp and log
    against the math module's).
    """
    _check_start(model, x0.mode, x0.zeta)
    _check_horizon(horizon)
    rt = _runtime(model)
    n = replicates
    out = ReplicateCosts(np.empty(n), np.empty(n), np.empty(n, dtype=np.int64),
                         np.empty(n, dtype=np.int64), np.empty(n, _first_step_dtype(model.dim)),
                         np.full((n, budget), math.inf))
    for first in range(0, replicates, BATCH_REPLICATES):
        reps = np.arange(first, min(first + BATCH_REPLICATES, replicates))
        _lockstep_batch(rt, table, x0, budget, horizon, _Streams(seed, reps), reps, out)
    return out


def _select(rows: slice, mask: np.ndarray):
    """The rows of a slice where mask, taken over them, holds: the slice
    itself when it holds on all of them, else their indices."""
    return rows if mask.all() else rows.start + np.flatnonzero(mask)


def _lockstep_batch(rt: _SimRuntime, table, x0: StatePoint, n0: int, horizon: float,
                    streams: _Streams, reps: np.ndarray, out: ReplicateCosts) -> None:
    """Step the paths of replicates reps, each drawing from its fixed slot of
    streams, until each is past the horizon with its budget spent; write their
    outcomes into out.  Live paths stay sorted by mode: a mode's rows are a slice."""
    model = rt.model
    alpha, flow, costs = model.discount, model.flow, model.costs
    n = reps.size
    slot = np.arange(n)
    pos = np.tile(np.asarray(x0.zeta, dtype=float), (n, 1))
    budget = np.full(n, n0)
    elapsed = np.zeros(n)
    running = np.zeros(n)
    fees = np.zeros(n)
    count = np.zeros(n, dtype=np.int64)
    groups = [(x0.mode, slice(0, n))]
    # Every live path jumps once per round, so the round count is each live
    # path's jump count.
    jumps = 0
    while slot.size:
        n = slot.size
        cap = np.empty(n)
        for m, rows in groups:
            cap[rows] = flow.hit_times(m, pos[rows])
        intervene = np.zeros(n, dtype=bool)
        y_idx = np.zeros(n, dtype=np.int64)
        if n0:
            for m, rows in groups:
                rows = rows.start + np.flatnonzero(budget[rows] > 0)
                if rows.size:
                    wait, r, y = table.lookup_many(m, pos[rows], budget[rows])
                    plan = ~wait & (r < cap[rows])
                    rows = rows[plan]
                    intervene[rows], cap[rows], y_idx[rows] = True, r[plan], y[plan]

        # Sojourn truncated at the cap, as _sojourn_sampler.
        u = streams.draw(slot)
        sojourn = np.zeros(n)
        cap_hit = cap <= 0.0
        pre = np.empty_like(pos)
        for m, rows in groups:
            if rt.lam_const[m] == 0.0 and np.isinf(cap[rows]).any():
                j = rows.start + np.argmax(np.isinf(cap[rows]))
                raise _never_exits(m, pos[j].tolist())
            live = _select(rows, ~cap_hit[rows])
            sojourn[live], cap_hit[live] = flow_sojourns(model, m, pos[live], cap[live], u[live])
            pre[rows] = flow.position(m, pos[rows], sojourn[rows])

        # Running cost up to the horizon, as _run_path.
        jump_time = elapsed + sojourn
        seg = np.where(jump_time < horizon, sojourn, np.maximum(horizon - elapsed, 0.0))
        for m, rows in groups:
            rows = _select(rows, seg[rows] > 0.0)
            f0 = rt.f_const[m]
            if f0 is None:
                running[rows] += np.exp(-alpha * elapsed[rows]) * flow_running_cost(
                    model, m, pos[rows], seg[rows])
            elif f0 != 0.0:
                running[rows] += (np.exp(-alpha * elapsed[rows]) * f0
                                  * (1.0 - np.exp(-alpha * seg[rows])) / alpha)

        post_mode = np.empty(n, dtype=np.int64)
        post_pos = np.empty_like(pos)
        acted = intervene & cap_hit
        if acted.any():
            for m, group in groups:
                group = group.start + np.flatnonzero(acted[group])
                if (y_idx[group] < 0).any():
                    j = group[np.argmax(y_idx[group] < 0)]
                    raise PolicyCoverageError(
                        f"intervention scheduled at (mode={m}, zeta={tuple(pos[j].tolist())}) "
                        "with no restart"
                    )
                for y in np.unique(y_idx[group]).tolist():
                    sel = group[y_idx[group] == y]
                    fee = costs.intervention_along(m, pre[sel], y)
                    fees[sel] += np.exp(-alpha * jump_time[sel]) * fee
            rows = np.flatnonzero(acted)
            restarts = [table.control_set[y] for y in y_idx[rows].tolist()]
            post_mode[rows] = [y.mode for y in restarts]
            post_pos[rows] = [y.zeta for y in restarts]
            budget[rows] -= 1
            out.tau[reps[slot[rows]], count[rows]] = jump_time[rows]
            count[rows] += 1

        # Natural jumps draw their atom, as _atom_sampler.
        natural = ~acted
        u_atom = np.empty(n)
        u_atom[natural] = streams.draw(slot[natural])
        index = y_idx.copy()
        for m, rows in groups:
            rows = _select(rows, natural[rows])
            static = rt.static[m]
            if static is None:
                post_mode[rows], post_pos[rows], index[rows] = _draw_atoms(
                    model.kernel, m, pre[rows], u_atom[rows])
                continue
            k = np.minimum(np.searchsorted(static.cdf_array, u_atom[rows], side="right"),
                           static.cdf_array.size - 1)
            post_mode[rows], post_pos[rows], index[rows] = static.modes[k], static.positions[k], k
        budget[natural] = np.maximum(budget[natural] - 1, 0)
        if not jumps:
            # Every path is live in the first round, in replicate order.
            step = (sojourn, acted, cap_hit, index, post_mode, post_pos, budget)
            for name, value in zip(out.first.dtype.names, step):
                out.first[name][reps] = value

        jumps += 1
        if jumps > MAX_JUMPS:
            raise NumericalError(
                f"more than {MAX_JUMPS} jumps; the model looks numerically explosive"
            )
        finished = (jump_time >= horizon) & (budget == 0)
        done = np.flatnonzero(finished)
        idx = reps[slot[done]]
        out.running[idx], out.fees[idx] = running[done], fees[done]
        out.interventions[idx], out.jumps[idx] = count[done], jumps
        # One gather drops the finished paths and makes each mode's rows a
        # slice again.
        order = [np.flatnonzero(~finished & (post_mode == m)) for m in model.mode_ids]
        ends = np.cumsum([rows.size for rows in order]).tolist()
        groups = [(m, slice(end - rows.size, end))
                  for m, rows, end in zip(model.mode_ids, order, ends) if rows.size]
        order = np.concatenate(order)
        slot, pos, budget, elapsed, running, fees, count = (
            a[order] for a in (slot, post_pos, budget, jump_time, running, fees, count))
