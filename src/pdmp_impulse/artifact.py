"""Versioned on-disk artifact holding h, the value functions and the policy.

JSON with sorted keys and repr-round-tripping floats, so artifacts are
byte-identical across runs with the same inputs and reload to the exact
stored values.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ArtifactMismatchError
from .model import PdmpModel, StatePoint
from .valuefn import FunctionStore, PolicyStage, PolicyTable

FORMAT_TAG = "pdmpval/1"


def _store_payload(store: FunctionStore) -> dict:
    return {
        str(m): {
            "axes": [list(a) for a in store.axes[m]],
            "values": store.values[m].ravel().tolist(),
            "shape": list(store.values[m].shape),
        }
        for m in store.axes
    }


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ArtifactMismatchError(f"artifact {where} has no {key!r} field")
    return doc[key]


def _numbers(raw, where: str, size: int | None = None) -> np.ndarray:
    """A stored list of finite numbers, of the given length if one is given."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ArtifactMismatchError(f"artifact {where} is not a list of numbers") from None
    if arr.ndim != 1 or (size is not None and arr.size != size):
        raise ArtifactMismatchError(
            f"artifact {where} has shape {arr.shape}; the grid needs ({size},)"
        )
    if not np.all(np.isfinite(arr)):
        raise ArtifactMismatchError(f"artifact {where} holds non-finite values")
    return arr


def _integers(raw, where: str, size: int, upper: int) -> np.ndarray:
    """A stored list of integers in [0, upper) of the given length."""
    arr = _numbers(raw, where, size)
    if np.any((arr != np.floor(arr)) | (arr < 0) | (arr >= upper)):
        raise ArtifactMismatchError(
            f"artifact {where} holds values outside the integers 0..{upper - 1}"
        )
    return arr.astype(np.int64)


def _store_from_payload(payload, coverage) -> FunctionStore:
    if not isinstance(payload, dict) or set(payload) != {str(m) for m in coverage}:
        raise ArtifactMismatchError("artifact h does not cover the modes of its coverage")
    axes = {}
    values = {}
    for key, entry in payload.items():
        m = int(key)
        where = f"h mode {key}"
        raw_axes = _field(entry, "axes", where)
        if not isinstance(raw_axes, list) or len(raw_axes) != len(coverage[m][0]):
            raise ArtifactMismatchError(f"artifact {where} axes do not match the dimension")
        axes[m] = tuple(_numbers(a, f"{where} axis {i}") for i, a in enumerate(raw_axes))
        if any(a.size < 2 or np.any(np.diff(a) <= 0) for a in axes[m]):
            raise ArtifactMismatchError(f"artifact {where} axes are not increasing grids")
        shape = [a.size for a in axes[m]]
        if _field(entry, "shape", where) != shape:
            raise ArtifactMismatchError(
                f"artifact {where} shape {entry['shape']} does not match its axes {shape}"
            )
        values[m] = _numbers(_field(entry, "values", where), f"{where} values",
                             math.prod(shape)).reshape(shape)
    return FunctionStore(axes, values, coverage)


def save_policy(path, table: PolicyTable) -> None:
    payload = {
        "format": FORMAT_TAG,
        "model_hash": table.model_hash,
        "eps": table.eps,
        "n_max": table.n_max,
        "grid": table.grid_spec,
        "coverage": {
            str(m): [list(lo), list(hi)] for m, (lo, hi) in table.coverage.items()
        },
        "control_set": [[y.mode, list(y.zeta)] for y in table.control_set],
        "h": _store_payload(table.h),
        "stages": [
            {
                str(m): {
                    "wait": stage.wait[m].ravel().astype(int).tolist(),
                    "r": stage.r[m].ravel().tolist(),
                    "y_index": stage.y_index[m].ravel().tolist(),
                    "value": stage.value[m].ravel().tolist(),
                    "shape": list(stage.value[m].shape),
                }
                for m in stage.value
            }
            for stage in table.stages
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text)


def load_policy(path, model: PdmpModel | None = None) -> PolicyTable:
    """Read an artifact, checking it against itself and, given one, the model.

    Anything that does not fit (text that is not JSON, a missing field, a
    list whose length does not match the grid, a non-finite number, a stage
    count other than n_max, a restart index outside the control set, a
    control set other than the model's) raises :class:`ArtifactMismatchError`.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactMismatchError(f"artifact is not readable JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_TAG:
        tag = payload.get("format") if isinstance(payload, dict) else None
        raise ArtifactMismatchError(f"unsupported artifact format {tag!r}")
    model_hash = _field(payload, "model_hash", "document")
    if model is not None and model_hash != model.content_hash:
        raise ArtifactMismatchError(
            "artifact was computed for a different model "
            f"(stored {str(model_hash)[:12]}..., "
            f"current {model.content_hash[:12]}...)"
        )
    eps = _field(payload, "eps", "document")
    if not isinstance(eps, (int, float)) or not (math.isfinite(eps) and eps > 0):
        raise ArtifactMismatchError(f"artifact eps {eps!r} is not a positive number")
    n_max = _field(payload, "n_max", "document")
    stages = _field(payload, "stages", "document")
    if not isinstance(n_max, int) or n_max < 1 or not isinstance(stages, list) \
            or len(stages) != n_max:
        raise ArtifactMismatchError(
            f"artifact n_max {n_max!r} does not match its "
            f"{len(stages) if isinstance(stages, list) else 'missing'} stages"
        )
    try:
        coverage = {
            int(m): (tuple(float(v) for v in lo), tuple(float(v) for v in hi))
            for m, (lo, hi) in _field(payload, "coverage", "document").items()
        }
        control_set = tuple(StatePoint(int(m), tuple(z))
                            for m, z in _field(payload, "control_set", "document"))
    except (AttributeError, TypeError, ValueError):
        raise ArtifactMismatchError("artifact coverage or control_set is malformed") from None
    if model is not None and control_set != model.control_set:
        raise ArtifactMismatchError("artifact control set differs from the model's")
    h = _store_from_payload(_field(payload, "h", "document"), coverage)
    table = PolicyTable(
        model_hash=model_hash,
        eps=eps,
        n_max=n_max,
        axes=h.axes,
        coverage=coverage,
        control_set=control_set,
        h=h,
        grid_spec=payload.get("grid"),
    )
    for k, stage_payload in enumerate(stages, start=1):
        if not isinstance(stage_payload, dict) or set(stage_payload) != set(map(str, h.axes)):
            raise ArtifactMismatchError(f"artifact stage {k} does not cover the modes of h")
        wait = {}
        r = {}
        y_index = {}
        value = {}
        for key, entry in stage_payload.items():
            m = int(key)
            where = f"stage {k} mode {key}"
            shape = h.values[m].shape
            if _field(entry, "shape", where) != list(shape):
                raise ArtifactMismatchError(
                    f"artifact {where} shape {entry['shape']} does not match the grid {list(shape)}"
                )
            size = h.values[m].size
            wait[m] = _integers(_field(entry, "wait", where), f"{where} wait",
                                size, 2).astype(bool).reshape(shape)
            r[m] = _numbers(_field(entry, "r", where), f"{where} r", size).reshape(shape)
            y_index[m] = _integers(_field(entry, "y_index", where), f"{where} y_index",
                                   size, len(control_set)).reshape(shape)
            value[m] = _numbers(_field(entry, "value", where), f"{where} value",
                                size).reshape(shape)
        table.stages.append(PolicyStage(wait=wait, r=r, y_index=y_index, value=value))
    return table
