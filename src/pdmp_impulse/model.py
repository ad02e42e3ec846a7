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
from functools import reduce
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Sequence

import numpy as np

from .errors import (
    DomainError,
    KernelCoverageError,
    ModelParseError,
    ModelValidationError,
    UnsupportedFeatureError,
)
from .expressions import CompiledExpr, compile_expr

FLOW_FAMILIES = {
    "constant-drift": ("velocity",),
    "linear-decay-to-target": ("rate", "target"),
    "exponential-decay-to-target": ("rate", "target"),
}
"""The supported flow families, each with the parameter vectors it reads."""


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


_SCALAR_OPS = SimpleNamespace(exp=math.exp, log=math.log, copysign=math.copysign, maximum=max)
"""The numpy functions that the flow formulas use, for Python floats."""


def _coordinate_flow(family: str, p: dict[str, np.ndarray], lo: float, hi: float,
                     i: int, ops):
    """The hit and move formulas of coordinate i of one flow family.

    ``hit(z)`` is the time coordinate i leaves (lo, hi), or hit is None when
    it never does; ``move(z, t)`` is the coordinate after time t.  Both read
    coordinate i as ``z[i]`` and run their arithmetic on ``ops``: with
    :data:`_SCALAR_OPS` on position tuples and floats, with ``numpy`` on
    coordinate columns (such as ``pos.T`` of (n, d) positions) and time
    arrays, to the same bits wherever both forms use the same functions.
    """
    if family == "constant-drift":
        v = float(p["velocity"][i])
        hit = None
        if v > 0:
            hit = lambda z: (hi - z[i]) / v
        elif v < 0:
            hit = lambda z: (z[i] - lo) / (-v)
        return hit, lambda z, t: z[i] + v * t
    g, r = float(p["target"][i]), float(p["rate"][i])
    if family == "linear-decay-to-target":
        # A target on the boundary itself is still reached in finite time.
        hit = None
        if g <= lo:
            hit = lambda z: (z[i] - lo) / r
        elif g >= hi:
            hit = lambda z: (hi - z[i]) / r
        return hit, lambda z, t: g + ops.copysign(ops.maximum(abs(z[i] - g) - r * t, 0.0),
                                                  z[i] - g)
    hit = None
    if g < lo:
        hit = lambda z: ops.log((z[i] - g) / (lo - g)) / r
    elif g > hi:
        hit = lambda z: ops.log((g - z[i]) / (g - hi)) / r
    return hit, lambda z, t: g + (z[i] - g) * ops.exp(-r * t)


class FlowRuntime:
    """Closed-form flow evaluation and boundary-hit times for one model.

    All three supported families act independently per coordinate and satisfy
    the semigroup identity exactly, so positions and hit times are pure
    arithmetic with no ODE solves.  :func:`_coordinate_flow` gives each
    coordinate's hit and move formulas, and every map here runs them:
    ``hit_fn[mode](zeta)`` and ``position_fn[mode](zeta, t)`` on position
    tuples, for the single-path simulator, and ``hit_times`` and ``position``
    on arrays, for flow profiles, the lockstep Monte Carlo engine and model
    validation.
    """

    def __init__(self, family: str, params: dict[int, dict[str, np.ndarray]],
                 regions: dict[int, ModeRegion]):
        self.hit_fn = {}
        self.position_fn = {}
        self._hit_columns = {}
        self._move_columns = {}
        for m, region in regions.items():
            bounds = list(enumerate(zip(region.lower, region.upper)))
            hits, moves = zip(*(_coordinate_flow(family, params[m], lo, hi, i, _SCALAR_OPS)
                                for i, (lo, hi) in bounds))
            hit_cols, self._move_columns[m] = zip(
                *(_coordinate_flow(family, params[m], lo, hi, i, np) for i, (lo, hi) in bounds))
            self._hit_columns[m] = tuple(hit for hit in hit_cols if hit is not None)
            hits = tuple(hit for hit in hits if hit is not None)
            if not hits:
                self.hit_fn[m] = lambda z: math.inf
            elif len(hits) == 1:
                self.hit_fn[m] = hits[0]
            else:
                self.hit_fn[m] = lambda z, hits=hits: min(hit(z) for hit in hits)
            if len(moves) == 1:
                self.position_fn[m] = lambda z, t, move=moves[0]: (move(z, t),)
            else:
                self.position_fn[m] = lambda z, t, moves=moves: tuple(
                    move(z, t) for move in moves)

    def position(self, mode: int, zeta: Sequence[float], t):
        """Flow position after time t.

        zeta is one position (d,) or a stack of positions (..., d); its
        leading axes broadcast against t, a scalar or an array.
        """
        # Coordinate by coordinate, so that numpy loops run along the times.
        z, t = np.asarray(zeta, dtype=float), np.asarray(t, dtype=float)
        cols = [z[..., i] for i in range(z.shape[-1])]
        return np.concatenate([move(cols, t)[..., None] for move in self._move_columns[mode]],
                              axis=-1)

    def hit_times(self, mode: int, pos: np.ndarray) -> np.ndarray:
        """Hit times for an (n, d) array of positions, with the arithmetic of
        ``hit_fn`` run over coordinate columns."""
        hits = [hit(pos.T) for hit in self._hit_columns[mode]]
        return reduce(np.minimum, hits) if hits else np.full(pos.shape[0], math.inf)


@dataclass(frozen=True)
class KernelAtom:
    mode: int
    zeta_exprs: tuple[CompiledExpr, ...]
    prob: float

    @property
    def static_position(self) -> tuple[float, ...] | None:
        """The atom's position when it reads no pre-jump coordinate, else None."""
        position = tuple(e.constant for e in self.zeta_exprs)
        return None if None in position else position

    def positions(self, pre_pos: np.ndarray) -> np.ndarray:
        """Atom positions for an (n, d) array of pre-jump positions."""
        cols = [pre_pos[:, i] for i in range(pre_pos.shape[1])]
        n = pre_pos.shape[0]
        out = np.empty((n, len(self.zeta_exprs)))
        for j, e in enumerate(self.zeta_exprs):
            out[:, j] = np.broadcast_to(e({"zeta": cols}), (n,))
        return out


def _coverage_box(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds widened by the slack that absorbs rounding at the box's
    edges: a store's coverage, or a kernel entry's region on a retry."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    slack = 1e-9 * np.maximum(1.0, hi - lo)
    return lo - slack, hi + slack


@dataclass(frozen=True)
class KernelEntry:
    from_mode: int
    region: tuple[tuple[float, float], ...] | None  # inclusive box, None = whole closure
    atoms: tuple[KernelAtom, ...]

    def matches_many(self, pos: np.ndarray, widened: bool) -> np.ndarray:
        """Rows of an (n, d) array inside the region, or inside the region
        widened by the coverage slack that absorbs rounding at its edges."""
        if self.region is None:
            return np.ones(pos.shape[0], dtype=bool)
        lo, hi = np.array(self.region).T
        if widened:
            lo, hi = _coverage_box(lo, hi)
        return ((lo <= pos) & (pos <= hi)).all(axis=1)


@dataclass(frozen=True)
class AtomRecord:
    """Kernel atom evaluated along a batch of pre-jump positions; ``atom`` is
    its index within the kernel entry that claimed them."""

    indices: np.ndarray
    mode: int
    positions: np.ndarray
    prob: float
    atom: int


class StaticKernel:
    """The kernel of a mode that one region-free entry of static atoms
    covers: its (mode, position, probability) triples, their cumulative
    probabilities, the (mode, position, atom index) that a draw returns, and
    the cumulative probabilities, modes and positions as arrays for batched
    draws."""

    def __init__(self, atoms: list[tuple[int, tuple[float, ...], float]]):
        self.atoms = atoms
        self.cdf = list(accumulate(prob for _mode, _pos, prob in atoms))
        self.draws = [(a_mode, a_pos, j) for j, (a_mode, a_pos, _prob) in enumerate(atoms)]
        self.cdf_array = np.asarray(self.cdf)
        self.modes = np.array([a_mode for a_mode, _pos, _prob in atoms])
        self.positions = np.array([a_pos for _mode, a_pos, _prob in atoms], dtype=float)


class KernelRuntime:
    """Finite-support transition kernel; first matching entry wins."""

    def __init__(self, entries: tuple[KernelEntry, ...]):
        self.entries = entries
        self._static: dict[int, StaticKernel | None] = {}

    def _owners(self, mode: int, pos: np.ndarray) -> np.ndarray:
        """Index of the entry that claims each row of an (n, d) array of
        pre-jump positions: the first entry of the mode whose region holds
        the row, -1 where none does.  A row that no region holds exactly,
        such as a flow's end a rounding error past a region's edge, is
        matched once more against the regions widened by the coverage
        slack; rows held exactly keep their entry."""
        owner = self._first_match(mode, pos, False)
        missed = np.flatnonzero(owner < 0)
        if missed.size:
            owner[missed] = self._first_match(mode, pos[missed], True)
        return owner

    def _first_match(self, mode: int, pos: np.ndarray, widened: bool) -> np.ndarray:
        owner = np.full(pos.shape[0], -1)
        for e, entry in enumerate(self.entries):
            if entry.from_mode == mode:
                owner[(owner < 0) & entry.matches_many(pos, widened)] = e
        return owner

    def claim(self, mode: int, pos: np.ndarray) -> list[tuple[KernelEntry, np.ndarray]]:
        """The entries that claim rows of an (n, d) array of same-mode
        pre-jump positions, in entry order, each with its rows in order.  A
        row that no entry covers raises a kernel coverage error."""
        owner = self._owners(mode, pos)
        if (owner < 0).any():
            raise _uncovered(mode, pos[np.argmax(owner < 0)])
        return [(entry, rows) for e, entry in enumerate(self.entries)
                if entry.from_mode == mode and (rows := np.flatnonzero(owner == e)).size]

    def atom_records(self, mode: int, pos: np.ndarray) -> list[AtomRecord]:
        """Every atom of the claiming entries, evaluated at the rows each
        entry claims."""
        records = []
        for entry, rows in self.claim(mode, pos):
            sub = pos[rows]
            records += [AtomRecord(rows, atom.mode, atom.positions(sub), atom.prob, j)
                        for j, atom in enumerate(entry.atoms)]
        return records

    def static_atoms_for(self, mode: int) -> StaticKernel | None:
        """The one static-kernel table of a mode, or None unless one
        region-free entry of static atoms covers the mode; lets callers skip
        per-position kernel evaluation.  Built on first use and kept."""
        if mode not in self._static:
            entries = [e for e in self.entries if e.from_mode == mode]
            atoms = entries[0].atoms if len(entries) == 1 and entries[0].region is None else ()
            positions = [a.static_position for a in atoms]
            self._static[mode] = StaticKernel(
                [(a.mode, pos, a.prob) for a, pos in zip(atoms, positions)]
            ) if atoms and None not in positions else None
        return self._static[mode]


def _uncovered(mode: int, row: np.ndarray) -> KernelCoverageError:
    return KernelCoverageError(
        f"no kernel entry covers pre-jump point (mode={mode}, zeta={tuple(row.tolist())})"
    )


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

    def running_along(self, mode: int, pos: np.ndarray) -> np.ndarray:
        cols = [pos[:, i] for i in range(pos.shape[1])]
        return np.broadcast_to(self.running[mode]({"zeta": cols}), (pos.shape[0],)).astype(float)

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

    def intensity_along(self, mode: int, pos: np.ndarray) -> np.ndarray:
        cols = [pos[:, i] for i in range(pos.shape[1])]
        return np.broadcast_to(self.intensity[mode]({"zeta": cols}), (pos.shape[0],)).astype(float)


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


def _compile(source, variables: tuple[str, ...], where: str, dim: int) -> CompiledExpr:
    """:func:`compile_expr`, rejecting a subscript of the position ``zeta``
    or the target ``y`` past the model's ``dim`` coordinates."""
    expr = compile_expr(source, variables, where)
    for name, index in sorted(expr.subscripts):
        if name in ("zeta", "y") and index >= dim:
            raise ModelParseError(
                f"{where}: {name}[{index}] is past the model's {dim} coordinate(s)")
    return expr


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
    if not isinstance(family, str) or family not in FLOW_FAMILIES:
        raise UnsupportedFeatureError(
            f"flow.family {family!r} not supported; expected one of {tuple(FLOW_FAMILIES)}"
        )
    flow_params: dict[int, dict[str, np.ndarray]] = {}
    raw_params = _require(flow_doc, "params", "flow")
    for mode_id in modes:
        if str(mode_id) not in raw_params:
            raise ModelParseError(f"flow.params missing mode {mode_id}")
        where = f"flow.params[{mode_id}]"
        p = {name: np.asarray(_require(raw_params[str(mode_id)], name, where), dtype=float)
             for name in FLOW_FAMILIES[family]}
        for name, value in p.items():
            if value.shape != (dim,):
                raise ModelParseError(f"{where}.{name} must have length {dim}")
        if "rate" in p and np.any(p["rate"] <= 0):
            raise ModelParseError(f"{where}.rate must be positive")
        flow_params[mode_id] = p
    flow = FlowRuntime(family, flow_params, modes)

    # Intensity.
    intensity: dict[int, CompiledExpr] = {}
    for mode_id in modes:
        if str(mode_id) not in doc["intensity"]:
            raise ModelParseError(f"intensity missing mode {mode_id}")
        intensity[mode_id] = _compile(
            doc["intensity"][str(mode_id)], ("zeta",), f"intensity[{mode_id}]", dim
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
                _compile(z, ("zeta",), f"kernel[{i}].atoms[{j}].zeta[{k}]", dim)
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
        running[mode_id] = _compile(
            raw_running[str(mode_id)], ("zeta",), f"costs.running[{mode_id}]", dim
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
        payload = _compile(
            _require(interv, "expr", "costs.intervention"),
            ("zeta", "m", "y", "ym"),
            "costs.intervention.expr",
            dim,
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


def _node_mesh(axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """All nodes of one mode's grid as an (n, d) array, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _validation_points(model: PdmpModel, mode: int, density: int,
                       rng: np.random.Generator, extra: int = 0) -> np.ndarray:
    region = model.region(mode)
    lo = np.asarray(region.lower)
    hi = np.asarray(region.upper)
    span = hi - lo
    mesh = _node_mesh([np.linspace(lo[i] + 1e-9 * span[i], hi[i] - 1e-9 * span[i], density)
                       for i in range(model.dim)])
    if extra:
        samples = lo + rng.random((extra, model.dim)) * span
        mesh = np.vstack([mesh, samples])
    return mesh


def validate_model(model: PdmpModel, grid_density: int = 50,
                   rng_seed: int = 0) -> ValidationReport:
    """Check the model assumptions on a sampled grid and report pass/fail.

    Hard invariants (bounded exit time, interior kernel atoms, cost bounds and
    the triangle property) are asserted; Lipschitz regularity along the flow is
    only estimated by finite differences and reported, never asserted.  The
    grid has grid_density points per axis, at least 2.
    """
    if rng_seed < 0:
        raise DomainError(f"seed must be non-negative, got {rng_seed}")
    if grid_density < 2:
        raise ModelParseError(f"grid density must be at least 2, got {grid_density}")
    rng = np.random.default_rng(rng_seed)
    checks: list[CheckResult] = []
    constants: dict[str, float] = {}

    # Exit-time bound per mode: the first failing point in sampling order, or
    # the first point of largest exit time.
    worst_t, worst_x = 0.0, None
    for mode in model.mode_ids:
        pts = _validation_points(model, mode, grid_density, rng)
        ts = model.flow.hit_times(mode, pts)
        bad = ~((0 < ts) & (ts <= model.t_star_bound))
        ok = not bad.any()
        k = int(np.argmax(ts)) if ok else int(np.argmax(bad))
        if not ok or ts[k] > worst_t:
            worst_t, worst_x = float(ts[k]), (mode, tuple(pts[k]))
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

    # Kernel atoms: interior, distinct from the pre-jump point.  The first
    # failing pre-jump point in sampling order is reported, with its first
    # failing atom.
    atom_ok, atom_detail, atom_witness = True, "all sampled atoms interior and distinct", None
    clean = np.iinfo(np.int64).max
    for mode in model.mode_ids:
        pts = _validation_points(model, mode, grid_density, rng)
        # Include reachable boundary points as pre-jump candidates.
        starts = pts[:: max(1, len(pts) // 16)]
        pre = np.vstack([pts, model.flow.position(mode, starts,
                                                  model.flow.hit_times(mode, starts))])
        owner = model.kernel._owners(mode, pre)
        # Per row: -1 if no entry covers it, else 2j if atom j is the first
        # to fail by lying off its region's interior, 2j + 1 if by equalling
        # the pre-jump point.
        fault = np.where(owner < 0, -1, clean)
        for e in np.unique(owner[owner >= 0]).tolist():
            rows = np.flatnonzero(owner == e)
            for j, atom in enumerate(model.kernel.entries[e].atoms):
                at = atom.positions(pre[rows])
                region = model.region(atom.mode)
                inside = np.all((at > region.lower) & (at < region.upper), axis=1)
                same = np.all(at == pre[rows], axis=1) & (atom.mode == mode)
                code = np.where(inside, np.where(same, 2 * j + 1, clean), 2 * j)
                fault[rows] = np.minimum(fault[rows], code)
        bad = np.flatnonzero(fault != clean)
        if not bad.size:
            continue
        k = bad[0]
        atom_ok = False
        atom_witness = {"pre_jump": (mode, tuple(pre[k].tolist()))}
        if fault[k] < 0:
            atom_detail = str(_uncovered(mode, pre[k]))
        elif fault[k] % 2:
            atom_detail = "atom equals its pre-jump point"
        else:
            atom = model.kernel.entries[owner[k]].atoms[fault[k] // 2]
            atom_detail = "atom on or outside region boundary"
            atom_witness["atom"] = (atom.mode, tuple(atom.positions(pre[k:k + 1])[0].tolist()))
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
            [model.costs.intervention_along(y.mode, np.array([y.zeta]), j)[0] for j in range(u)]
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
        ts = model.flow.hit_times(mode, pts)
        pts, ts = pts[np.isfinite(ts)], np.minimum(ts[np.isfinite(ts)], model.t_star_bound)
        t1, t2 = 0.3 * ts, 0.4 * ts
        once = model.flow.position(mode, model.flow.position(mode, pts, t1), t2)
        direct = model.flow.position(mode, pts, t1 + t2)
        gaps = np.max(np.abs(once - direct), axis=1)
        worst_gap = max(worst_gap, float(gaps.max(initial=0.0)))
        if (gaps > 1e-12).any():
            # The last failing point, as a scan in sampling order reports it.
            k = np.flatnonzero(gaps > 1e-12)[-1]
            semi_ok = False
            semi_witness = {"x": (mode, tuple(pts[k])), "gap": float(gaps[k])}
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
            t_cap = 0.95 * min(model.flow.hit_fn[mode](za), model.flow.hit_fn[mode](zb))
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

    return ValidationReport(checks, constants)
