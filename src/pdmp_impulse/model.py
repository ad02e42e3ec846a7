"""Declarative definition, loading and validation of an impulse-control problem.

A model couples a piecewise deterministic Markov process (modes with box
regions, a closed-form flow family, a jump intensity and a finite-support
transition kernel) with running and intervention costs, a finite control set
and a discount factor.  Everything is immutable after :func:`load_model`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import (
    KernelCoverageError,
    ModelParseError,
    ModelValidationError,
    UnsupportedFeatureError,
)
from .expressions import CompiledExpr, compile_expr

FLOW_FAMILIES = ("constant-drift", "linear-decay-to-target", "exponential-decay-to-target")


@dataclass(frozen=True)
class StatePoint:
    """A point (mode, position) of the hybrid state space."""

    mode: int
    zeta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "zeta", tuple(float(z) for z in self.zeta))

    @property
    def dim(self) -> int:
        return len(self.zeta)


def as_state(mode: int, zeta) -> StatePoint:
    if np.isscalar(zeta):
        zeta = (float(zeta),)
    return StatePoint(int(mode), tuple(float(z) for z in np.atleast_1d(zeta)))


@dataclass(frozen=True)
class ModeRegion:
    """Open box region attached to one mode."""

    mode: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains_interior(self, zeta: Sequence[float]) -> bool:
        return all(lo < z < hi for z, lo, hi in zip(zeta, self.lower, self.upper))

    def contains_closure(self, zeta: Sequence[float], slack: float = 0.0) -> bool:
        return all(
            lo - slack <= z <= hi + slack
            for z, lo, hi in zip(zeta, self.lower, self.upper)
        )


def _coordinate_flow(family: str, p: dict[str, np.ndarray], lo: float, hi: float,
                     i: int):
    """Scalar (hit, position) closures of coordinate i, on position tuples.

    ``hit(zeta)`` is the time coordinate i leaves (lo, hi), or the closure is
    None when it never does.  ``position(zeta, t)`` returns the coordinate's
    one-element slice of the flowed position tuple, so a one-dimensional mode
    uses it as its whole position map.
    """
    if family == "constant-drift":
        v = float(p["velocity"][i])
        hit = None
        if v > 0:
            hit = lambda z: (hi - z[i]) / v
        elif v < 0:
            hit = lambda z: (z[i] - lo) / (-v)
        return hit, lambda z, t: (z[i] + v * t,)
    g, r = float(p["target"][i]), float(p["rate"][i])
    if family == "linear-decay-to-target":
        # A target on the boundary itself is still reached in finite time.
        hit = None
        if g <= lo:
            hit = lambda z: (z[i] - lo) / r
        elif g >= hi:
            hit = lambda z: (hi - z[i]) / r

        def position(z, t):
            delta = z[i] - g
            mag = abs(delta) - r * t
            return (g,) if mag <= 0.0 else (g + math.copysign(mag, delta),)

        return hit, position
    hit = None
    if g < lo:
        hit = lambda z: math.log((z[i] - g) / (lo - g)) / r
    elif g > hi:
        hit = lambda z: math.log((g - z[i]) / (g - hi)) / r
    return hit, lambda z, t: (g + (z[i] - g) * math.exp(-r * t),)


class FlowRuntime:
    """Closed-form flow evaluation and boundary-hit times for one model.

    All three supported families act independently per coordinate and satisfy
    the semigroup identity exactly, so positions and hit times are pure
    arithmetic with no ODE solves.  ``hit_fn[mode](zeta)`` and
    ``position_fn[mode](zeta, t)`` are the scalar maps on position tuples that
    every simulation step uses; ``position`` is the vectorized form used
    along flow profiles.
    """

    def __init__(self, family: str, params: dict[int, dict[str, np.ndarray]],
                 regions: dict[int, ModeRegion]):
        self.family = family
        self.params = params
        self.regions = regions
        self.hit_fn = {}
        self.position_fn = {}
        for m, region in regions.items():
            coords = [_coordinate_flow(family, params[m], lo, hi, i)
                      for i, (lo, hi) in enumerate(zip(region.lower, region.upper))]
            hits = tuple(hit for hit, _ in coords if hit is not None)
            positions = tuple(position for _, position in coords)
            if not hits:
                self.hit_fn[m] = lambda z: math.inf
            elif len(hits) == 1:
                self.hit_fn[m] = hits[0]
            else:
                self.hit_fn[m] = lambda z, hits=hits: min(hit(z) for hit in hits)
            if len(positions) == 1:
                self.position_fn[m] = positions[0]
            else:
                self.position_fn[m] = lambda z, t, positions=positions: tuple(
                    v for position in positions for v in position(z, t))

    def position(self, mode: int, zeta: Sequence[float], t):
        """Flow position after time t; t may be a scalar or an array (n,)."""
        z = np.asarray(zeta, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        tt = t_arr[..., None] if t_arr.ndim else t_arr
        p = self.params[mode]
        if self.family == "constant-drift":
            out = z + p["velocity"] * tt
        elif self.family == "linear-decay-to-target":
            delta = z - p["target"]
            out = p["target"] + np.sign(delta) * np.maximum(np.abs(delta) - p["rate"] * tt, 0.0)
        else:  # exponential-decay-to-target
            delta = z - p["target"]
            out = p["target"] + delta * np.exp(-p["rate"] * tt)
        return out

    def hit_time(self, mode: int, zeta: Sequence[float]) -> float:
        """Exact first time the flow leaves the open region (inf if never)."""
        return float(self.hit_fn[mode](zeta))


@dataclass(frozen=True)
class KernelAtom:
    mode: int
    zeta_exprs: tuple[CompiledExpr, ...]
    prob: float

    @property
    def is_static(self) -> bool:
        return all(e.is_constant for e in self.zeta_exprs)

    def position(self, pre_zeta: Sequence[float]) -> tuple[float, ...]:
        cols = list(np.asarray(pre_zeta, dtype=float))
        return tuple(float(e({"zeta": cols})) for e in self.zeta_exprs)

    def positions(self, pre_pos: np.ndarray) -> np.ndarray:
        """Atom positions for an (n, d) array of pre-jump positions."""
        cols = [pre_pos[:, i] for i in range(pre_pos.shape[1])]
        n = pre_pos.shape[0]
        out = np.empty((n, len(self.zeta_exprs)))
        for j, e in enumerate(self.zeta_exprs):
            out[:, j] = np.broadcast_to(e({"zeta": cols}), (n,))
        return out


@dataclass(frozen=True)
class KernelEntry:
    from_mode: int
    region: tuple[tuple[float, float], ...] | None  # inclusive box, None = whole closure
    atoms: tuple[KernelAtom, ...]

    def matches(self, zeta: Sequence[float]) -> bool:
        if self.region is None:
            return True
        return all(lo <= z <= hi for z, (lo, hi) in zip(zeta, self.region))

    def matches_many(self, pos: np.ndarray) -> np.ndarray:
        if self.region is None:
            return np.ones(pos.shape[0], dtype=bool)
        mask = np.ones(pos.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.region):
            mask &= (pos[:, i] >= lo) & (pos[:, i] <= hi)
        return mask


class KernelRuntime:
    """Finite-support transition kernel; first matching entry wins."""

    def __init__(self, entries: tuple[KernelEntry, ...]):
        self.entries = entries

    def static_atoms_for(self, mode: int):
        """Fixed atom list when one region-free static entry covers the mode,
        else None; lets callers skip per-position kernel evaluation."""
        matching = [e for e in self.entries if e.from_mode == mode]
        if len(matching) == 1 and matching[0].region is None and all(
            a.is_static for a in matching[0].atoms
        ):
            entry = matching[0]
            return [
                (a.mode, a.position((0.0,) * len(a.zeta_exprs)), a.prob)
                for a in entry.atoms
            ]
        return None

    def entry_at(self, mode: int, zeta: Sequence[float]) -> KernelEntry:
        for entry in self.entries:
            if entry.from_mode == mode and entry.matches(zeta):
                return entry
        raise KernelCoverageError(
            f"no kernel entry covers pre-jump point (mode={mode}, zeta={tuple(zeta)})"
        )

    def atoms_at(self, mode: int, zeta: Sequence[float]) -> list[tuple[StatePoint, float]]:
        entry = self.entry_at(mode, zeta)
        return [
            (StatePoint(a.mode, a.position(zeta)), a.prob) for a in entry.atoms
        ]


class CostRuntime:
    """Running cost per mode, intervention cost on closure x control set."""

    def __init__(self, running: dict[int, CompiledExpr], running_bound: float,
                 kind: str, payload, c_lower: float, c_upper: float,
                 control_set: tuple[StatePoint, ...]):
        self.running = running
        self.running_bound = running_bound
        self.kind = kind
        self._payload = payload
        self.c_lower = c_lower
        self.c_upper = c_upper
        self.control_set = control_set

    def running_at(self, mode: int, zeta) -> float:
        cols = list(np.asarray(zeta, dtype=float))
        return float(self.running[mode]({"zeta": cols}))

    def running_along(self, mode: int, pos: np.ndarray) -> np.ndarray:
        cols = [pos[:, i] for i in range(pos.shape[1])]
        return np.broadcast_to(self.running[mode]({"zeta": cols}), (pos.shape[0],)).astype(float)

    def intervention(self, x_mode: int, x_zeta, y_index: int) -> float:
        if self.kind == "constant":
            return self._payload
        if self.kind == "per_target":
            return self._payload[y_index]
        y = self.control_set[y_index]
        env = {
            "zeta": list(np.asarray(x_zeta, dtype=float)),
            "m": float(x_mode),
            "y": list(y.zeta),
            "ym": float(y.mode),
        }
        return float(self._payload(env))

    def intervention_along(self, x_mode: int, pos: np.ndarray, y_index: int) -> np.ndarray:
        n = pos.shape[0]
        if self.kind == "constant":
            return np.full(n, self._payload)
        if self.kind == "per_target":
            return np.full(n, self._payload[y_index])
        y = self.control_set[y_index]
        env = {
            "zeta": [pos[:, i] for i in range(pos.shape[1])],
            "m": float(x_mode),
            "y": list(y.zeta),
            "ym": float(y.mode),
        }
        return np.broadcast_to(self._payload(env), (n,)).astype(float)


@dataclass(frozen=True, eq=False)
class PdmpModel:
    """Fully resolved, immutable impulse-control problem instance."""

    modes: dict[int, ModeRegion]
    dim: int
    flow: FlowRuntime
    intensity: dict[int, CompiledExpr]
    intensity_bound: float
    kernel: KernelRuntime
    costs: CostRuntime
    discount: float
    t_star_bound: float
    doc: dict = field(repr=False)
    content_hash: str = field(repr=False)

    @property
    def mode_ids(self) -> tuple[int, ...]:
        return tuple(self.modes)

    @property
    def control_set(self) -> tuple[StatePoint, ...]:
        return self.costs.control_set

    def region(self, mode: int) -> ModeRegion:
        return self.modes[mode]

    def intensity_at(self, mode: int, zeta) -> float:
        cols = list(np.asarray(zeta, dtype=float))
        return float(self.intensity[mode]({"zeta": cols}))

    def intensity_along(self, mode: int, pos: np.ndarray) -> np.ndarray:
        cols = [pos[:, i] for i in range(pos.shape[1])]
        return np.broadcast_to(self.intensity[mode]({"zeta": cols}), (pos.shape[0],)).astype(float)

    def require_mode(self, mode: int) -> ModeRegion:
        if mode not in self.modes:
            raise ModelParseError(f"unknown mode {mode}")
        return self.modes[mode]


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _require(doc: dict, key: str, where: str = "document"):
    if key not in doc:
        raise ModelParseError(f"{key} required in {where}")
    return doc[key]


def _positive(value, name: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ModelParseError(f"{name} must be a number") from None
    if not value > 0:
        raise ModelParseError(f"{name} must be positive")
    return value


def load_model(source) -> PdmpModel:
    """Load and compile a model from a dict, JSON string, or file path."""
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, Path):
        doc = json.loads(source.read_text())
    elif isinstance(source, str):
        if source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            doc = json.loads(Path(source).read_text())
    else:
        raise ModelParseError("model source must be a dict, JSON text, or file path")

    for key in ("modes", "flow", "intensity", "kernel", "costs", "control_set", "discount"):
        _require(doc, key)

    discount = _positive(doc["discount"], "discount")
    t_star_bound = _positive(_require(doc, "t_star_bound"), "t_star_bound")

    # Modes and regions.
    modes: dict[int, ModeRegion] = {}
    dim = None
    for entry in doc["modes"]:
        mode_id = int(_require(entry, "id", "modes[]"))
        if mode_id < 0:
            raise ModelParseError("modes[].id must be a nonnegative integer")
        if mode_id in modes:
            raise ModelParseError(f"duplicate mode id {mode_id}")
        bounds = _require(entry, "bounds", "modes[]")
        lower = tuple(float(b[0]) for b in bounds)
        upper = tuple(float(b[1]) for b in bounds)
        if any(lo >= hi for lo, hi in zip(lower, upper)):
            raise ModelParseError(f"modes[{mode_id}].bounds must satisfy lo < hi")
        if dim is None:
            dim = len(lower)
        elif len(lower) != dim:
            raise ModelParseError("all modes must share the same state dimension")
        modes[mode_id] = ModeRegion(mode_id, lower, upper)
    if not modes:
        raise ModelParseError("modes must declare at least one mode")

    # Flow.
    flow_doc = doc["flow"]
    family = _require(flow_doc, "family", "flow")
    if family not in FLOW_FAMILIES:
        raise UnsupportedFeatureError(
            f"flow.family {family!r} not supported; expected one of {FLOW_FAMILIES}"
        )
    flow_params: dict[int, dict[str, np.ndarray]] = {}
    raw_params = _require(flow_doc, "params", "flow")
    for mode_id in modes:
        if str(mode_id) not in raw_params:
            raise ModelParseError(f"flow.params missing mode {mode_id}")
        p = raw_params[str(mode_id)]
        if family == "constant-drift":
            vel = np.asarray(_require(p, "velocity", f"flow.params[{mode_id}]"), dtype=float)
            if vel.shape != (dim,):
                raise ModelParseError(f"flow.params[{mode_id}].velocity must have length {dim}")
            flow_params[mode_id] = {"velocity": vel}
        else:
            rate = np.asarray(_require(p, "rate", f"flow.params[{mode_id}]"), dtype=float)
            target = np.asarray(_require(p, "target", f"flow.params[{mode_id}]"), dtype=float)
            if rate.shape != (dim,) or target.shape != (dim,):
                raise ModelParseError(
                    f"flow.params[{mode_id}] rate/target must have length {dim}"
                )
            if np.any(rate <= 0):
                raise ModelParseError(f"flow.params[{mode_id}].rate must be positive")
            flow_params[mode_id] = {"rate": rate, "target": target}
    flow = FlowRuntime(family, flow_params, modes)

    # Intensity.
    intensity: dict[int, CompiledExpr] = {}
    for mode_id in modes:
        if str(mode_id) not in doc["intensity"]:
            raise ModelParseError(f"intensity missing mode {mode_id}")
        intensity[mode_id] = compile_expr(
            doc["intensity"][str(mode_id)], ("zeta",), f"intensity[{mode_id}]"
        )
    intensity_bound = float(_require(doc, "intensity_bound"))
    if intensity_bound < 0:
        raise ModelParseError("intensity_bound must be nonnegative")

    # Kernel.
    entries = []
    for i, entry in enumerate(doc["kernel"]):
        from_mode = int(_require(entry, "from_mode", f"kernel[{i}]"))
        if from_mode not in modes:
            raise ModelParseError(f"kernel[{i}].from_mode {from_mode} is not a declared mode")
        region = entry.get("region")
        if region is not None:
            region = tuple((float(b[0]), float(b[1])) for b in region)
            if len(region) != dim:
                raise ModelParseError(f"kernel[{i}].region must have {dim} bound pairs")
        atoms = []
        total = 0.0
        for j, atom in enumerate(entry.get("atoms", [])):
            a_mode = int(_require(atom, "mode", f"kernel[{i}].atoms[{j}]"))
            if a_mode not in modes:
                raise ModelParseError(
                    f"kernel[{i}].atoms[{j}].mode {a_mode} is not a declared mode"
                )
            zeta_raw = _require(atom, "zeta", f"kernel[{i}].atoms[{j}]")
            if len(zeta_raw) != dim:
                raise ModelParseError(f"kernel[{i}].atoms[{j}].zeta must have length {dim}")
            exprs = tuple(
                compile_expr(z, ("zeta",), f"kernel[{i}].atoms[{j}].zeta[{k}]")
                for k, z in enumerate(zeta_raw)
            )
            prob = float(_require(atom, "prob", f"kernel[{i}].atoms[{j}]"))
            if prob < 0:
                raise ModelValidationError(f"kernel[{i}].atoms[{j}].prob is negative")
            total += prob
            atoms.append(KernelAtom(a_mode, exprs, prob))
        if not atoms:
            raise ModelParseError(f"kernel[{i}].atoms must be nonempty")
        if abs(total - 1.0) > 1e-12:
            raise ModelValidationError(
                f"kernel[{i}] atom probabilities sum to {total!r}, expected 1"
            )
        entries.append(KernelEntry(from_mode, region, tuple(atoms)))
    if not entries:
        raise ModelParseError("kernel must declare at least one entry")
    kernel = KernelRuntime(tuple(entries))

    # Atom interiority is a validation concern (validate_model reports it with
    # a witness); loading only enforces schema and probability structure.

    # Costs and control set.
    costs_doc = doc["costs"]
    running = {}
    raw_running = _require(costs_doc, "running", "costs")
    for mode_id in modes:
        if str(mode_id) not in raw_running:
            raise ModelParseError(f"costs.running missing mode {mode_id}")
        running[mode_id] = compile_expr(
            raw_running[str(mode_id)], ("zeta",), f"costs.running[{mode_id}]"
        )
    running_bound = float(_require(costs_doc, "running_bound", "costs"))
    if running_bound < 0:
        raise ModelParseError("costs.running_bound must be nonnegative")

    control_set = []
    for i, y in enumerate(doc["control_set"]):
        y_mode = int(_require(y, "mode", f"control_set[{i}]"))
        if y_mode not in modes:
            raise ModelParseError(f"control_set[{i}].mode {y_mode} is not a declared mode")
        zeta = tuple(float(z) for z in _require(y, "zeta", f"control_set[{i}]"))
        if len(zeta) != dim:
            raise ModelParseError(f"control_set[{i}].zeta must have length {dim}")
        if not modes[y_mode].contains_interior(zeta):
            raise ModelValidationError(
                f"control_set[{i}] at (mode={y_mode}, zeta={zeta}) is not interior"
            )
        control_set.append(StatePoint(y_mode, zeta))
    if not control_set:
        raise ModelParseError("control_set must be nonempty")
    control_set = tuple(control_set)

    interv = _require(costs_doc, "intervention", "costs")
    kind = _require(interv, "kind", "costs.intervention")
    if kind == "constant":
        payload = float(_require(interv, "value", "costs.intervention"))
    elif kind == "per_target":
        payload = [float(v) for v in _require(interv, "values", "costs.intervention")]
        if len(payload) != len(control_set):
            raise ModelParseError(
                "costs.intervention.values must have one entry per control point"
            )
    elif kind == "expr":
        payload = compile_expr(
            _require(interv, "expr", "costs.intervention"),
            ("zeta", "m", "y", "ym"),
            "costs.intervention.expr",
        )
    else:
        raise UnsupportedFeatureError(f"costs.intervention.kind {kind!r} not supported")
    c_lower, c_upper = (float(v) for v in _require(costs_doc, "intervention_bounds", "costs"))
    if not 0 < c_lower <= c_upper:
        raise ModelParseError("costs.intervention_bounds must satisfy 0 < c0 <= Cc")

    costs = CostRuntime(running, running_bound, kind, payload, c_lower, c_upper, control_set)

    text = canonical_json(doc)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return PdmpModel(
        modes=modes,
        dim=dim,
        flow=flow,
        intensity=intensity,
        intensity_bound=intensity_bound,
        kernel=kernel,
        costs=costs,
        discount=discount,
        t_star_bound=t_star_bound,
        doc=doc,
        content_hash=digest,
    )


# --------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    witness: dict | None = None


@dataclass
class ValidationReport:
    checks: list[CheckResult]
    estimated_constants: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "detail": c.detail,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
            "estimated_constants": self.estimated_constants,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _validation_points(model: PdmpModel, mode: int, density: int,
                       rng: np.random.Generator, extra: int = 0) -> np.ndarray:
    region = model.region(mode)
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    span = hi - lo
    axes = [np.linspace(lo[i] + 1e-9 * span[i], hi[i] - 1e-9 * span[i], density)
            for i in range(model.dim)]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    if extra:
        samples = lo + rng.random((extra, model.dim)) * span
        mesh = np.vstack([mesh, samples])
    return mesh


def validate_model(model: PdmpModel, grid_density: int = 50,
                   rng_seed: int = 0, raise_on_failure: bool = False) -> ValidationReport:
    """Check the model assumptions on a sampled grid and report pass/fail.

    Hard invariants (bounded exit time, interior kernel atoms, cost bounds and
    the triangle property) are asserted; Lipschitz regularity along the flow is
    only estimated by finite differences and reported, never asserted.
    """
    rng = np.random.default_rng(rng_seed)
    checks: list[CheckResult] = []
    constants: dict[str, float] = {}

    # Exit-time bound per mode.
    worst_t, worst_x = 0.0, None
    ok = True
    for mode in model.mode_ids:
        for zeta in _validation_points(model, mode, grid_density, rng):
            ts = model.flow.hit_time(mode, zeta)
            if not 0 < ts <= model.t_star_bound:
                ok = False
                worst_t, worst_x = ts, (mode, tuple(zeta))
                break
            if ts > worst_t:
                worst_t, worst_x = ts, (mode, tuple(zeta))
        if not ok:
            break
    checks.append(
        CheckResult(
            "exit_time_bounded",
            ok,
            f"max t* on grid = {worst_t:.6g} (bound {model.t_star_bound:g})",
            None if ok else {"x": worst_x, "t_star": worst_t},
        )
    )

    # Kernel atoms: interior, distinct from the pre-jump point.
    atom_ok, atom_detail, atom_witness = True, "all sampled atoms interior and distinct", None
    for mode in model.mode_ids:
        pts = _validation_points(model, mode, grid_density, rng)
        # Include reachable boundary points as pre-jump candidates.
        boundary = [
            np.asarray(model.flow.position(mode, z, model.flow.hit_time(mode, z)))
            for z in pts[:: max(1, len(pts) // 16)]
        ]
        for zeta in list(pts) + boundary:
            try:
                atoms = model.kernel.atoms_at(mode, zeta)
            except KernelCoverageError as exc:
                atom_ok, atom_detail = False, str(exc)
                atom_witness = {"pre_jump": (mode, tuple(zeta))}
                break
            for point, _prob in atoms:
                if not model.region(point.mode).contains_interior(point.zeta):
                    atom_ok = False
                    atom_detail = "atom on or outside region boundary"
                    atom_witness = {"pre_jump": (mode, tuple(zeta)),
                                    "atom": (point.mode, point.zeta)}
                    break
                same = point.mode == mode and float(
                    np.linalg.norm(np.asarray(point.zeta) - np.asarray(zeta))
                ) == 0.0
                if same:
                    atom_ok = False
                    atom_detail = "atom equals its pre-jump point"
                    atom_witness = {"pre_jump": (mode, tuple(zeta))}
                    break
            if not atom_ok:
                break
        if not atom_ok:
            break
    checks.append(CheckResult("kernel_atoms", atom_ok, atom_detail, atom_witness))

    # Intervention cost bounds and triangle property.
    n_samples = 10_000
    modes_drawn = rng.choice(model.mode_ids, size=n_samples)
    u = len(model.control_set)
    c_min, c_max = np.inf, -np.inf
    bound_witness = None
    tri_ok, tri_witness = True, None
    c_at_controls = np.array(
        [
            [model.costs.intervention(y.mode, y.zeta, j) for j in range(u)]
            for y in model.control_set
        ]
    )
    for mode in model.mode_ids:
        sel = modes_drawn == mode
        count = int(sel.sum())
        if count == 0:
            continue
        region = model.region(mode)
        lo = np.asarray(region.lower)
        hi = np.asarray(region.upper)
        pos = lo + rng.random((count, model.dim)) * (hi - lo)
        cvals = np.stack(
            [model.costs.intervention_along(mode, pos, j) for j in range(u)], axis=1
        )
        lo_here = float(cvals.min())
        hi_here = float(cvals.max())
        if lo_here < c_min:
            c_min = lo_here
            idx = np.unravel_index(int(cvals.argmin()), cvals.shape)
            bound_witness = {"x": (mode, tuple(pos[idx[0]])), "y_index": int(idx[1]),
                             "c": lo_here}
        c_max = max(c_max, hi_here)
        # c(x, z) <= c(x, y) + c(y, z) for every pair of control points.
        for jy in range(u):
            for jz in range(u):
                lhs = cvals[:, jz]
                rhs = cvals[:, jy] + c_at_controls[jy, jz]
                bad = lhs > rhs + 1e-12
                if bad.any():
                    tri_ok = False
                    k = int(np.argmax(bad))
                    tri_witness = {"x": (mode, tuple(pos[k])), "y_index": jy,
                                   "z_index": jz, "gap": float((lhs - rhs)[k])}
    bounds_ok = 0 < model.costs.c_lower <= c_min and c_max <= model.costs.c_upper
    detail = f"sampled c in [{c_min:.6g}, {c_max:.6g}], declared [{model.costs.c_lower:g}, {model.costs.c_upper:g}]"
    if c_min <= 0:
        detail = "c0 > 0 violated: " + detail
    checks.append(CheckResult("intervention_cost_bounds", bounds_ok, detail,
                              None if bounds_ok else bound_witness))
    checks.append(
        CheckResult(
            "intervention_cost_triangle",
            tri_ok,
            "c(x,z) <= c(x,y)+c(y,z) on all samples" if tri_ok else "triangle violated",
            tri_witness,
        )
    )
    constants["c_min_sampled"] = float(c_min)
    constants["c_max_sampled"] = float(c_max)

    # Running cost and intensity bounds.
    f_ok, f_detail, f_witness = True, "", None
    lam_ok, lam_detail, lam_witness = True, "", None
    f_max = lam_max = 0.0
    for mode in model.mode_ids:
        pts = _validation_points(model, mode, grid_density, rng)
        fv = model.costs.running_along(mode, pts)
        lv = model.intensity_along(mode, pts)
        if fv.min() < 0 or fv.max() > model.costs.running_bound + 1e-12:
            f_ok = False
            k = int(np.argmax((fv < 0) | (fv > model.costs.running_bound)))
            f_witness = {"x": (mode, tuple(pts[k])), "f": float(fv[k])}
        if lv.min() < 0 or lv.max() > model.intensity_bound + 1e-12:
            lam_ok = False
            k = int(np.argmax((lv < 0) | (lv > model.intensity_bound)))
            lam_witness = {"x": (mode, tuple(pts[k])), "lambda": float(lv[k])}
        f_max = max(f_max, float(fv.max()))
        lam_max = max(lam_max, float(lv.max()))
    f_detail = f"max f = {f_max:.6g} (bound {model.costs.running_bound:g})"
    lam_detail = f"max intensity = {lam_max:.6g} (bound {model.intensity_bound:g})"
    checks.append(CheckResult("running_cost_bounds", f_ok, f_detail, f_witness))
    checks.append(CheckResult("intensity_bounds", lam_ok, lam_detail, lam_witness))

    # Flow semigroup spot check.
    semi_ok, semi_witness = True, None
    worst_gap = 0.0
    for mode in model.mode_ids:
        pts = _validation_points(model, mode, 8, rng, extra=16)
        for zeta in pts:
            ts = model.flow.hit_time(mode, zeta)
            if not np.isfinite(ts):
                continue
            t1 = 0.3 * min(ts, model.t_star_bound)
            t2 = 0.4 * min(ts, model.t_star_bound)
            once = model.flow.position(mode, model.flow.position(mode, zeta, t1), t2)
            direct = model.flow.position(mode, zeta, t1 + t2)
            gap = float(np.max(np.abs(once - direct)))
            if gap > worst_gap:
                worst_gap = gap
            if gap > 1e-12:
                semi_ok = False
                semi_witness = {"x": (mode, tuple(zeta)), "gap": gap}
    checks.append(
        CheckResult("flow_semigroup", semi_ok,
                    f"max |compose - direct| = {worst_gap:.3g}", semi_witness)
    )

    # Finite-difference Lipschitz estimates along the flow (reported only).
    lam_lip = c_lip_space = c_lip_time = 0.0
    for mode in model.mode_ids:
        region = model.region(mode)
        lo = np.asarray(region.lower)
        hi = np.asarray(region.upper)
        for _ in range(64):
            za = lo + rng.random(model.dim) * (hi - lo)
            zb = lo + rng.random(model.dim) * (hi - lo)
            gap = float(np.linalg.norm(za - zb))
            if gap < 1e-9:
                continue
            t_cap = 0.95 * min(model.flow.hit_time(mode, za), model.flow.hit_time(mode, zb))
            if not np.isfinite(t_cap) or t_cap <= 0:
                continue
            us = np.linspace(0.0, t_cap, 9)
            pa = np.asarray(model.flow.position(mode, za, us))
            pb = np.asarray(model.flow.position(mode, zb, us))
            la = model.intensity_along(mode, pa)
            lb = model.intensity_along(mode, pb)
            lam_lip = max(lam_lip, float(np.max(np.abs(la - lb))) / gap)
            for j in range(len(model.control_set)):
                ca = model.costs.intervention_along(mode, pa, j)
                cb = model.costs.intervention_along(mode, pb, j)
                c_lip_space = max(c_lip_space, float(np.max(np.abs(ca - cb))) / gap)
                dt = np.diff(us)
                if np.all(dt > 0):
                    c_lip_time = max(c_lip_time, float(np.max(np.abs(np.diff(ca)) / dt)))
    constants["lipschitz_intensity_along_flow"] = lam_lip
    constants["lipschitz_intervention_cost_space"] = c_lip_space
    constants["lipschitz_intervention_cost_time"] = c_lip_time
    checks.append(
        CheckResult(
            "lipschitz_spot_estimates",
            True,
            f"estimated local constants: intensity {lam_lip:.4g}, "
            f"intervention cost {c_lip_space:.4g} (space) / {c_lip_time:.4g} (time)",
        )
    )

    report = ValidationReport(checks, constants)
    if raise_on_failure and not report.passed:
        first = next(c for c in report.checks if not c.passed)
        raise ModelValidationError(f"{first.name}: {first.detail}", witness=first.witness)
    return report
