"""Budget-augmented controlled process: trajectories and Monte Carlo validation.

The controlled process carries (mode, position, remaining budget N, clock
since last jump).  Between jumps it follows the uncontrolled flow; the sojourn
is truncated at min(boundary-hit time, planned intervention time r for the
current budget).  Hitting the truncation cap is an intervention exactly when
the cap came from r rather than from the region boundary; interventions
relocate deterministically to the policy's restart point with budget N - 1.
Natural jumps draw from the kernel and also decrement the budget while it is
positive.  Classification never compares sampled reals for equality: the
sojourn sampler returns the truncation flag.

Every simulation here runs the step core and path loop of :mod:`.dynamics`,
the same code that simulates the uncontrolled process at budget 0, with the
policy lookup of :meth:`PolicyTable.lookup` that :func:`policy_query` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import ks_2samp

from .dynamics import (
    INTERVENTION,
    NATURAL,
    IntensityPath,
    _check_start,
    _raw_step,
    _run_path,
    _runtime,
    default_horizon,
)
from .errors import DomainError, PolicyCoverageError
from .model import PdmpModel, StatePoint
from .operators import collect_atom_records
from .quadrature import panel_cumulative, panel_nodes
from .valuefn import PolicyTable, policy_query

KS_CRIT_1PCT = math.sqrt(-0.5 * math.log(0.005))  # two-sided 1% coefficient


class _Cemetery:
    """Absorbing marker for states with no further restart defined."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "CEMETERY"


CEMETERY = _Cemetery()


@dataclass(frozen=True)
class AugmentedState:
    mode: int
    zeta: tuple[float, ...]
    budget: int
    clock: float

    def __post_init__(self):
        object.__setattr__(self, "zeta", tuple(float(z) for z in self.zeta))
        if self.budget < 0:
            raise DomainError("budget must be nonnegative")
        if self.clock < 0:
            raise DomainError("clock must be nonnegative")

    def project(self) -> StatePoint:
        return StatePoint(self.mode, self.zeta)


@dataclass(frozen=True)
class AugJumpEvent:
    time: float
    sojourn: float
    pre: AugmentedState
    post: AugmentedState
    kind: str  # NATURAL or INTERVENTION
    cap_hit: bool  # sojourn reached the truncation cap


@dataclass(frozen=True)
class ControlledTrajectory:
    start: AugmentedState
    events: tuple[AugJumpEvent, ...]
    tau_times: tuple[float, ...]
    restarts: tuple[AugmentedState, ...]
    horizon: float
    running_cost: float
    intervention_cost: float

    @property
    def total_cost(self) -> float:
        return self.running_cost + self.intervention_cost

    @property
    def n_interventions(self) -> int:
        return len(self.tau_times)

    def tau(self, i: int) -> float:
        """Time of the i-th intervention (1-based); +inf when it never happens."""
        if i < 1:
            raise DomainError("intervention index is 1-based")
        return self.tau_times[i - 1] if i <= len(self.tau_times) else math.inf

    def restart(self, i: int):
        if i < 1:
            raise DomainError("intervention index is 1-based")
        return self.restarts[i - 1] if i <= len(self.restarts) else CEMETERY

    def to_json_line(self) -> str:
        import json

        payload = {
            "start": [self.start.mode, list(self.start.zeta), self.start.budget],
            "horizon": self.horizon,
            "running_cost": self.running_cost,
            "intervention_cost": self.intervention_cost,
            "tau": list(self.tau_times),
            "events": [
                {
                    "time": e.time,
                    "sojourn": e.sojourn,
                    "kind": e.kind,
                    "pre": [e.pre.mode, list(e.pre.zeta), e.pre.budget, e.pre.clock],
                    "post": [e.post.mode, list(e.post.zeta), e.post.budget, e.post.clock],
                    "cap_hit": e.cap_hit,
                }
                for e in self.events
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# Augmented-process operations


def aug_flow(model: PdmpModel, s, t: float, table: PolicyTable | None = None):
    """Flow of the augmented process; the cemetery is absorbing."""
    if s is CEMETERY:
        return CEMETERY
    if t < 0:
        raise DomainError("flow time must be nonnegative")
    ts = model.flow.hit_time(s.mode, s.zeta)
    cap = ts
    if table is not None:
        cap = min(cap, aug_hit_time(model, s, table))
    if t > cap + 1e-12 * max(1.0, cap):
        raise DomainError(f"flow time {t} exceeds the augmented hit time {cap}")
    pos = np.asarray(model.flow.position(s.mode, s.zeta, min(t, ts)))
    return AugmentedState(s.mode, tuple(float(v) for v in pos), s.budget, s.clock + t)


def aug_hit_time(model: PdmpModel, s: AugmentedState, table: PolicyTable) -> float:
    """min(boundary-hit time, planned intervention time) at the state's point."""
    if s is CEMETERY:
        raise DomainError("hit time undefined at the cemetery state")
    ts = model.flow.hit_time(s.mode, s.zeta)
    if s.budget == 0:
        return ts
    res = policy_query(table, s.project(), s.budget, model=model)
    return min(ts, res.r)


def aug_step(s: AugmentedState, table: PolicyTable, model: PdmpModel,
             rng: np.random.Generator) -> tuple[AugmentedState, AugJumpEvent]:
    """One jump of the controlled process from a freshly-restarted state.

    The planned intervention time and the boundary-hit time are frozen at the
    state's current point (simulation only ever steps from clock 0).
    """
    if s is CEMETERY:
        raise DomainError("cannot step from the cemetery state")
    sojourn, kind, cap_hit, pre_pos, post_mode, post_pos, post_budget, _index = _raw_step(
        _runtime(model), table, s.mode, s.zeta, s.budget, rng
    )
    pre = AugmentedState(s.mode, pre_pos, s.budget, s.clock + sojourn)
    post = AugmentedState(post_mode, post_pos, post_budget, 0.0)
    event = AugJumpEvent(time=sojourn, sojourn=sojourn, pre=pre, post=post,
                         kind=kind, cap_hit=cap_hit)
    return post, event


def simulate_controlled(
    x0: StatePoint,
    n0: int,
    table: PolicyTable,
    model: PdmpModel,
    rng: np.random.Generator,
    horizon: float | None = None,
    collect_events: bool = True,
) -> ControlledTrajectory:
    """Run the strategy with initial budget n0 from x0 and accumulate costs.

    Running cost is accumulated up to the horizon (tail-truncation rule);
    intervention costs are never truncated, so simulation continues past the
    horizon until the budget is exhausted.
    """
    if n0 < 0 or n0 > table.n_max:
        raise PolicyCoverageError(f"initial budget {n0} outside table range 0..{table.n_max}")
    if horizon is None:
        horizon = default_horizon(model)
    running, fees, interventions, steps = _run_path(model, table, x0, n0, horizon, rng,
                                                    collect_events)
    return ControlledTrajectory(
        start=AugmentedState(x0.mode, x0.zeta, n0, 0.0),
        events=tuple(
            AugJumpEvent(
                time=time,
                sojourn=sojourn,
                pre=AugmentedState(mode, pre, budget, sojourn),
                post=AugmentedState(post_mode, post_pos, post_budget, 0.0),
                kind=kind,
                cap_hit=cap_hit,
            )
            for time, mode, budget, (sojourn, kind, cap_hit, pre, post_mode, post_pos,
                                     post_budget, _index) in steps
        ),
        tau_times=tuple(time for time, _mode, _budget, _step in interventions),
        restarts=tuple(AugmentedState(post_mode, post_pos, post_budget, 0.0)
                       for _time, _mode, _budget, (_sojourn, _kind, _cap_hit, _pre, post_mode,
                                                   post_pos, post_budget, _index)
                       in interventions),
        horizon=horizon,
        running_cost=running,
        intervention_cost=fees,
    )


# --------------------------------------------------------------------------
# Monte Carlo estimation and law checks


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    ci95: tuple[float, float]
    running_mean: float
    intervention_mean: float
    intervention_counts: dict[int, int]
    replicates: int


def estimate_cost_J(
    x0: StatePoint,
    n0: int,
    table: PolicyTable,
    model: PdmpModel,
    replicates: int,
    seed: int,
    horizon: float | None = None,
) -> CostEstimate:
    """Monte Carlo estimate of the strategy cost with per-replicate streams.

    Replicate r draws from a stream seeded by (seed, r), so estimates are
    reproducible and independent of evaluation order; sums use numpy pairwise
    accumulation.
    """
    if replicates < 1:
        raise DomainError("replicates must be positive")
    totals = np.empty(replicates)
    runnings = np.empty(replicates)
    fees = np.empty(replicates)
    counts: dict[int, int] = {}
    for rep in range(replicates):
        rng = np.random.default_rng([seed, rep])
        traj = simulate_controlled(x0, n0, table, model, rng,
                                   horizon=horizon, collect_events=False)
        runnings[rep] = traj.running_cost
        fees[rep] = traj.intervention_cost
        totals[rep] = traj.total_cost
        k = traj.n_interventions
        counts[k] = counts.get(k, 0) + 1
    mean = float(np.mean(totals))
    if replicates > 1:
        se = float(np.std(totals, ddof=1) / math.sqrt(replicates))
    else:
        se = 0.0
    return CostEstimate(
        mean=mean,
        std_error=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        running_mean=float(np.mean(runnings)),
        intervention_mean=float(np.mean(fees)),
        intervention_counts=dict(sorted(counts.items())),
        replicates=replicates,
    )


@dataclass(frozen=True)
class LawStat:
    name: str
    expected: float
    observed: float
    count: int
    std_dev: float


@dataclass(frozen=True)
class LawReport:
    rows: tuple[LawStat, ...]
    replicates: int

    @property
    def max_abs_dev(self) -> float:
        return max((abs(r.std_dev) for r in self.rows), default=0.0)


def _std_dev(observed_count: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if observed_count == 0 else math.inf
    if p >= 1.0:
        return 0.0 if observed_count == n else math.inf
    return (observed_count - n * p) / math.sqrt(n * p * (1.0 - p))


def check_joint_law(x0: StatePoint, n0: int, table: PolicyTable, model: PdmpModel,
                    replicates: int, seed: int, quad_points: int = 257) -> LawReport:
    """Compare empirical first-transition frequencies with the analytic law.

    Events: jump strictly inside the truncation cap, natural boundary hit, and
    intervention; conditional kernel-atom frequencies are checked against the
    hazard-weighted atom probabilities (interior) and the exact kernel
    probabilities (boundary).  Deviations are reported in binomial standard
    errors.
    """
    if replicates < 100:
        raise DomainError("need at least 100 replicates")
    _check_start(model, x0.mode, x0.zeta)
    rt = _runtime(model)
    ts = model.flow.hit_time(x0.mode, x0.zeta)
    res = policy_query(table, x0, n0, model=model) if n0 > 0 else None
    r = res.r if res is not None else math.inf
    cap = min(ts, r)
    ipath = IntensityPath(model, x0.mode, np.asarray(x0.zeta), ts)
    lam_cap = float(ipath.cumulative(cap)) if cap > 0 else 0.0
    boundary_mass = math.exp(-lam_cap)
    p_interior = 1.0 - boundary_mass
    is_intervention_cap = r < ts
    p_intervention = boundary_mass if is_intervention_cap else 0.0
    p_boundary_nat = 0.0 if is_intervention_cap else boundary_mass

    # Analytic interior atom mix: hazard-weighted kernel probabilities.
    # Atom identity is the index within the matched entry, as sampled.
    atom_probs_interior: dict[int, float] = {}
    n_atoms = 0
    if cap > 0 and p_interior > 0:
        tgrid = np.linspace(0.0, cap, quad_points)
        s, wq = panel_nodes(tgrid)
        pos = np.asarray(model.flow.position(x0.mode, np.asarray(x0.zeta), s))
        if pos.ndim == 1:
            pos = pos[None, :]
        lam_s = np.asarray(ipath.lam(s), dtype=float)
        haz = lam_s * np.exp(-np.asarray(ipath.cumulative(s), dtype=float))
        for rec in collect_atom_records(model, x0.mode, pos):
            weights = np.zeros(s.size)
            weights[rec.indices] = rec.prob
            mass = panel_cumulative(haz * weights, wq)[-1]
            atom_probs_interior[rec.atom] = (
                atom_probs_interior.get(rec.atom, 0.0) + float(mass) / p_interior
            )
        n_atoms = len(atom_probs_interior)
    boundary_atoms = model.kernel.atoms_at(
        x0.mode, np.asarray(model.flow.position(x0.mode, np.asarray(x0.zeta), ts))
    )

    interior_count = 0
    boundary_count = 0
    interv_count = 0
    interior_atom_counts = dict.fromkeys(range(n_atoms), 0)
    boundary_atom_counts = dict.fromkeys(range(len(boundary_atoms)), 0)
    for rep in range(replicates):
        rng = np.random.default_rng([seed, rep])
        step = _raw_step(rt, table, x0.mode, x0.zeta, n0, rng)
        kind, cap_hit, atom_idx = step[1], step[2], step[7]
        if kind == INTERVENTION:
            interv_count += 1
        elif cap_hit:
            boundary_count += 1
            if atom_idx in boundary_atom_counts:
                boundary_atom_counts[atom_idx] += 1
        else:
            interior_count += 1
            if atom_idx in interior_atom_counts:
                interior_atom_counts[atom_idx] += 1

    rows = [
        LawStat("interior_jump", p_interior, interior_count / replicates,
                interior_count, _std_dev(interior_count, replicates, p_interior)),
        LawStat("boundary_natural_jump", p_boundary_nat,
                boundary_count / replicates, boundary_count,
                _std_dev(boundary_count, replicates, p_boundary_nat)),
        LawStat("intervention", p_intervention, interv_count / replicates,
                interv_count, _std_dev(interv_count, replicates, p_intervention)),
    ]
    for j, p in atom_probs_interior.items():
        c = interior_atom_counts.get(j, 0)
        if interior_count > 0:
            rows.append(
                LawStat(f"interior_atom_{j}", p, c / interior_count, c,
                        _std_dev(c, interior_count, p))
            )
    if boundary_count > 0:
        for j, (_point, prob) in enumerate(boundary_atoms):
            c = boundary_atom_counts.get(j, 0)
            rows.append(
                LawStat(f"boundary_atom_{j}", prob, c / boundary_count, c,
                        _std_dev(c, boundary_count, prob))
            )
    return LawReport(tuple(rows), replicates)


@dataclass(frozen=True)
class MarkovGroupResult:
    label: str
    n_observed: int
    n_fresh: int
    ks_statistic: float
    ks_critical_1pct: float

    @property
    def passed(self) -> bool:
        return self.ks_statistic < self.ks_critical_1pct


@dataclass(frozen=True)
class MarkovCheckReport:
    groups: tuple[MarkovGroupResult, ...]
    intervention_index: int
    replicates: int

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)


def _ks_against_fresh(observed: list[float], fresh: list[float]) -> tuple[float, float]:
    a = np.asarray(observed)
    b = np.asarray(fresh)
    stat = float(ks_2samp(a, b, method="asymp").statistic)
    n1, n2 = len(a), len(b)
    crit = KS_CRIT_1PCT * math.sqrt((n1 + n2) / (n1 * n2))
    return stat, crit


def check_intervention_markov(x0: StatePoint, n0: int, table: PolicyTable,
                              model: PdmpModel, replicates: int, seed: int,
                              i: int = 1) -> MarkovCheckReport:
    """Distributional restart check for intervention times.

    Paths are grouped by the class of their first transition.  After a natural
    first jump to z, the shifted intervention time tau_i - S1 must be
    distributed as tau_i of a fresh run from (z, n0-1); after a first-jump
    intervention at time r to restart y, tau_i - r must match tau_{i-1} of a
    fresh run from (y, n0-1).  Groups are compared with a two-sample KS test
    (times can carry atoms and +inf for "never"; ranks handle both).
    """
    if n0 < 1:
        raise DomainError("the restart check needs an initial budget of at least 1")
    horizon = default_horizon(model)
    natural_groups: dict[tuple, list[float]] = {}
    interv_groups: dict[tuple, list[float]] = {}
    for rep in range(replicates):
        rng = np.random.default_rng([seed, rep])
        traj = simulate_controlled(x0, n0, table, model, rng,
                                   horizon=horizon, collect_events=True)
        first = traj.events[0]
        post_key = (first.post.mode,
                    tuple(round(z, 9) for z in first.post.zeta),
                    first.post.budget)
        if first.kind == NATURAL:
            shifted = traj.tau(i) - first.time
            natural_groups.setdefault(post_key, []).append(shifted)
        else:
            shifted = traj.tau(i) - first.time if i >= 1 else math.inf
            interv_groups.setdefault(post_key, []).append(shifted)

    results: list[MarkovGroupResult] = []
    min_group = max(50, replicates // 100)

    def fresh_taus(key, count: int, index: int, salt: int) -> list[float]:
        mode, zeta, budget = key
        out = []
        for rep in range(count):
            rng = np.random.default_rng([seed, salt, rep])
            traj = simulate_controlled(StatePoint(mode, zeta), budget, table, model,
                                       rng, horizon=horizon, collect_events=False)
            out.append(traj.tau(index))
        return out

    salt = 1
    for key, sample in sorted(natural_groups.items()):
        if len(sample) < min_group:
            continue
        fresh = fresh_taus(key, len(sample), i, salt)
        salt += 1
        stat, crit = _ks_against_fresh(sample, fresh)
        results.append(
            MarkovGroupResult(
                label=f"natural-first->mode{key[0]},budget{key[2]}",
                n_observed=len(sample), n_fresh=len(fresh),
                ks_statistic=stat, ks_critical_1pct=crit,
            )
        )
    for key, sample in sorted(interv_groups.items()):
        if len(sample) < min_group:
            continue
        if i == 1:
            # tau_1 - r is identically zero after a first-jump intervention.
            fresh = [0.0] * len(sample)
        else:
            fresh = fresh_taus(key, len(sample), i - 1, salt)
            salt += 1
        stat, crit = _ks_against_fresh(sample, fresh)
        results.append(
            MarkovGroupResult(
                label=f"intervention-first->mode{key[0]},budget{key[2]}",
                n_observed=len(sample), n_fresh=len(fresh),
                ks_statistic=stat, ks_critical_1pct=crit,
            )
        )
    return MarkovCheckReport(tuple(results), i, replicates)
