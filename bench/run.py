#!/usr/bin/env python3
"""Benchmark of the pdmp-impulse solver and validator.

Run from the repository root:

    python3 bench/run.py --workload rm1-solve --seed 0 --seconds 35 --trace 0

Each workload is a closed loop with one client: this process repeats the
workload's operation back to back through the package's public CLI and
library entry points, in-process.  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced iterations and reports
the per-layer metrics.  Workloads, metrics and the reasons for them are in
bench/README.md.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment and every raw sample.  Outputs go to a temporary directory under
`.bench_out/`, which is removed at the end; a traced run leaves its spans in
`.bench_out/trace-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import END, NAME, NOTE, PARENT, START, Tracer, has_ancestor, self_times

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
RM1 = ROOT / "models" / "rm1.json"
PLANAR = Path(__file__).resolve().parent / "models" / "planar.json"
# sha256 of bench/models/planar.json; a silent edit of the model fails the run.
PLANAR_SHA256 = "301ff70f450a13b9dcb7763ed43cc6ce411aceaf22e1d8902a7c0f236c59900c"

EPS = "0.01"
MIN_OPS = 2            # two operations per run, so determinism is always checked
SETUP_ROUND_SECONDS = 0.25
REPLAY = 100           # replicates per row replayed with events for path counts
TOL_SE = 4.0           # |mean - reference| <= 4 se + 2e-6 (as tests/test_multidim.py)
TOL_ABS = 2e-6


@dataclass(frozen=True)
class Workload:
    model: Path
    starts: tuple[str, ...]    # --x0 values, pinned as grid nodes
    grid: int
    nmax: int
    solve_in_setup: bool       # artifact built in set-up, not per operation
    n0: str
    replicates: int            # controlled replicates per (x0, N0) row
    uncontrolled: int          # uncontrolled paths per start in the h check


WORKLOADS = {
    # Value recursion in 1-d; Monte Carlo only as a light output check.
    "rm1-solve": Workload(RM1, ("1:2.0", "2:4.0"), 400, 3, False,
                          "0,1,2,3", 500, 500),
    # 80k controlled and 20k uncontrolled paths on a density-200 artifact
    # that set-up builds; the recursion does not run in the operation.
    "rm1-validate": Workload(RM1, ("1:2.0", "2:4.0"), 200, 3, True,
                             "0,1,2,3", 10_000, 10_000),
    # The same layers through their general-d paths (dense 2652-node operator).
    "planar-pipeline": Workload(PLANAR, ("1:3.0,4.0",), 48, 1, False,
                                "0,1", 4000, 1000),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "validate_s": "s",
                    "mc_paths_per_s": "1/s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    """A program output failed one of the benchmark's checks."""


def import_package():
    if not (SRC / "pdmp_impulse" / "__init__.py").is_file():
        raise SystemExit(f"bench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdmp_impulse
    if Path(pdmp_impulse.__file__).resolve().parent != SRC / "pdmp_impulse":
        raise SystemExit(f"bench: imported pdmp_impulse from {pdmp_impulse.__file__}, "
                         f"not from {SRC}")
    import pdmp_impulse.cli  # also loads pdmp_impulse.artifact
    return pdmp_impulse


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_state(pkg, text: str):
    mode, coords = text.split(":", 1)
    return pkg.StatePoint(int(mode), tuple(float(v) for v in coords.split(",")))


def within(mean: float, se: float, ref: float) -> bool:
    return abs(mean - ref) <= TOL_SE * se + TOL_ABS


class Bench:
    """One workload's set-up, operation and output checks."""

    def __init__(self, pkg, name: str, seed: int, tmp: Path):
        self.pkg = pkg
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.tmp = tmp
        self.tracer: Tracer | None = None
        self.model = None
        self.artifact: Path | None = None
        self.dirs = 0
        self.digests: dict[str, str] = {}
        self.x0_flags = [a for s in self.w.starts for a in ("--x0", s)]

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def new_dir(self, tag: str) -> Path:
        self.dirs += 1
        return self.tmp / f"{tag}{self.dirs}"

    def run_cli(self, *argv: str) -> float:
        buf = io.StringIO()
        with self.span(f"cli.{argv[0]}"):
            start = time.perf_counter()
            with redirect_stdout(buf):
                code = self.pkg.cli.main(list(argv))
            seconds = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"{argv[0]} exited with {code}: {buf.getvalue()[-300:]}")
        return seconds

    def solve(self, out: Path) -> float:
        w = self.w
        return self.run_cli("compute-value", "--model", str(w.model), "--out", str(out),
                            "--grid", str(w.grid), "--nmax", str(w.nmax), "--eps", EPS,
                            *self.x0_flags)

    def same_digest(self, path: Path) -> None:
        digest = sha256(path)
        first = self.digests.setdefault(path.name, digest)
        if digest != first:
            raise CheckFailed(f"{path.name} differs between repetitions of one run")

    def check_artifact(self, path: Path) -> None:
        self.pkg.artifact.load_policy(path, self.model)
        self.same_digest(path)

    def set_up(self) -> dict:
        start = time.perf_counter()
        with self.span("model.load_model"):
            self.model = self.pkg.load_model(self.w.model)
        sample = {"model_load_s": time.perf_counter() - start}
        if self.w.solve_in_setup:
            out = self.new_dir("setup")
            sample["solve_s"] = self.solve(out)
            self.artifact = out / "policy.pdmpval"
        sample["setup_s"] = time.perf_counter() - start
        if self.w.solve_in_setup:
            self.check_artifact(self.artifact)
        return sample

    def uncontrolled_check(self, table) -> list[tuple]:
        model, n = self.model, self.w.uncontrolled
        horizon = self.pkg.dynamics.default_horizon(model)
        rows = []
        with self.span("bench.uncontrolled_check"):
            for label in self.w.starts:
                x0 = parse_state(self.pkg, label)
                costs = np.empty(n)
                for rep in range(n):
                    rng = np.random.default_rng([self.seed, rep])
                    costs[rep] = self.pkg.dynamics.simulate_uncontrolled(
                        model, x0, horizon, rng, collect_events=False
                    ).discounted_running_cost
                se = float(costs.std(ddof=1)) / math.sqrt(n)
                rows.append((label, float(costs.mean()), se, table.h.eval(x0)))
        return rows

    def operation(self) -> dict:
        w = self.w
        sample = {}
        out = self.new_dir("op")
        if w.solve_in_setup:
            artifact = self.artifact
        else:
            sample["solve_s"] = self.solve(out)
            artifact = out / "policy.pdmpval"
        start = time.perf_counter()
        simulate_s = self.run_cli("simulate", "--model", str(w.model), "--out", str(out),
                                  "--artifact", str(artifact), *self.x0_flags,
                                  "--n0", w.n0, "--replicates", str(w.replicates),
                                  "--seed", str(self.seed))
        table = self.pkg.artifact.load_policy(artifact, self.model)
        h_rows = self.uncontrolled_check(table)
        sample["validate_s"] = time.perf_counter() - start
        paths = len(w.starts) * len(w.n0.split(",")) * w.replicates
        sample["mc_paths_per_s"] = paths / simulate_s

        if not w.solve_in_setup:
            self.check_artifact(artifact)
        report = out / "cost_report.csv"
        self.same_digest(report)
        with open(report, newline="") as fh:
            for row in csv.DictReader(fh):
                if not within(float(row["mean"]), float(row["se"]), float(row["V_N0"])):
                    raise CheckFailed(f"cost_report row x0={row['x0']} N0={row['N0']}: "
                                      f"mean {row['mean']} vs V_N0 {row['V_N0']}, "
                                      f"se {row['se']}")
        for label, mean, se, h_ref in h_rows:
            if not within(mean, se, h_ref):
                raise CheckFailed(f"uncontrolled mean {mean!r} at {label} vs h {h_ref!r}, "
                                  f"se {se!r}")
        self.last_artifact = artifact
        return sample

    def iteration(self) -> dict:
        self.set_up()
        return self.operation()


def guarded(fn, tally: dict, counted: bool = True):
    """Run one set-up or operation; a failure is counted, not raised.

    A success counts as attempted only when `counted`, so that the many
    model-load-only set-ups do not swamp the operation count.
    """
    try:
        result = fn()
    except Exception:  # boundary of the measuring loop: record and go on
        tally["attempted"] += 1
        tally["failed"] += 1
        traceback.print_exc(file=sys.stderr)
        return None
    tally["attempted"] += counted
    return result


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
           "max": max(values)}
    if len(values) <= 20:
        out["values"] = values
    return out


def collect(samples: list[dict], key: str) -> list[float]:
    return [s[key] for s in samples if s is not None and key in s]


def end_to_end(bench: Bench, seconds: float, tally: dict) -> tuple[dict, dict]:
    """Set-up rounds alternate with operations, so that both are sampled
    across the whole run; the run stops before the next operation and
    set-up round would end after `seconds`."""
    setups, ops = [], []

    def set_up_round() -> bool:
        start = time.perf_counter()
        while time.perf_counter() - start < SETUP_ROUND_SECONDS:
            setups.append(guarded(bench.set_up, tally, counted=bench.w.solve_in_setup))
            if setups[-1] is None:
                return False
        return True

    start = time.perf_counter()
    while set_up_round():
        elapsed = time.perf_counter() - start
        if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
            break
        ops.append(guarded(bench.operation, tally))
    raw = {
        "setup_s": collect(setups, "setup_s"),
        "model_load_s": collect(setups, "model_load_s"),
        "solve_s": collect(setups if bench.w.solve_in_setup else ops, "solve_s"),
        "validate_s": collect(ops, "validate_s"),
        "mc_paths_per_s": collect(ops, "mc_paths_per_s"),
    }
    metrics = {k: statistics.median(v) for k, v in raw.items()
               if v and k in END_TO_END_UNITS}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics, raw


# --------------------------------------------------------------------------
# Traced run


def operator_bytes(op):
    """Computed bytes of a GridOperator's stored B matrix (dense or CSR)."""
    b = getattr(op, "matrix", None)
    if b is None:
        return None
    if hasattr(b, "indptr"):
        return int(b.data.nbytes + b.indices.nbytes + b.indptr.nbytes)
    nbytes = getattr(b, "nbytes", None)
    return None if nbytes is None else int(nbytes)


def install(tracer: Tracer, bench: Bench) -> set[str]:
    """Wrap the names the package looks up at call time; return those found."""
    cli, valuefn, dynamics = bench.pkg.cli, bench.pkg.valuefn, bench.pkg.dynamics
    targets = [
        (valuefn, "FlowProfile", "operators.FlowProfile", None),
        (valuefn, "JCurve", "operators.JCurve", None),
        (valuefn, "GridOperator", "valuefn.GridOperator", operator_bytes),
        (cli, "load_model", "model.load_model", None),
        (cli, "compute_h", "valuefn.compute_h", None),
        (cli, "value_iterate", "valuefn.value_iterate", None),
        (cli, "save_policy", "artifact.save_policy", None),
        (cli, "load_policy", "artifact.load_policy", None),
        (cli, "estimate_cost_J", "controlled.estimate_cost_J",
         lambda est: dict(est.intervention_counts)),
        (np.random, "default_rng", "numpy.default_rng", None),
        (dynamics, "simulate_uncontrolled", "dynamics.simulate_uncontrolled", None),
    ]
    # Methods are patched on the classes before the class names are wrapped.
    methods = [
        (getattr(valuefn, "JCurve", None), "at", "operators.JCurve.at"),
        (getattr(valuefn, "GridOperator", None), "apply", "valuefn.GridOperator.apply"),
    ]
    found = set()
    for cls, attr, name in methods:
        if cls is not None and tracer.patch(cls, attr, name):
            found.add(name)
    for owner, attr, name, note in targets:
        if tracer.patch(owner, attr, name, note):
            found.add(name)
    return found


def stage_durations(spans: list[list]) -> list[float]:
    """Seconds per value_iterate budget stage.

    value_iterate applies the grid operator once at the start of every
    stage, so stage k runs from its k-th apply to the next one (or to the
    end of the call).
    """
    out = []
    for rec in spans:
        if rec[NAME] == "valuefn.value_iterate":
            marks = [s[START] for s in spans if s[NAME] == "valuefn.GridOperator.apply"
                     and rec[START] <= s[START] <= rec[END]]
            marks.append(rec[END])
            out += [b - a for a, b in zip(marks, marks[1:])]
    return out


def layer_metrics(spans: list[list], found: set[str]) -> dict:
    """Per-layer times and counts of one traced iteration, from its spans."""
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    m = {}
    for name, time_key, count_key in (
        ("operators.JCurve.at", "operators.refine_s", "operators.refine_evals"),
        ("operators.FlowProfile", "operators.flow_profile_s", "operators.flow_profile_builds"),
        ("operators.JCurve", "operators.jcurve_s", "operators.jcurve_builds"),
        ("valuefn.GridOperator", "valuefn.grid_operator_s", "valuefn.grid_operator_builds"),
    ):
        if name in found:
            m[time_key] = total(name)
            m[count_key] = count(name)
    if "valuefn.GridOperator" in found:
        sizes = [spans[i][NOTE] for i in by_name.get("valuefn.GridOperator", ())
                 if spans[i][NOTE] is not None]
        if sizes:
            m["valuefn.operator_mb"] = max(sizes) / 1e6
    if {"valuefn.compute_h", "valuefn.GridOperator"} <= found:
        axes = assembly = 0.0
        for i in by_name.get("valuefn.compute_h", ()):
            kids = [j for j in by_name.get("valuefn.GridOperator", ())
                    if spans[j][PARENT] == i]
            if kids:
                axes += spans[kids[0]][START] - spans[i][START]
                assembly += sum(dur(j) for j in kids)
        m["valuefn.axes_s"] = axes
        m["valuefn.h_s"] = total("valuefn.compute_h") - assembly - axes
    applies = by_name.get("valuefn.GridOperator.apply", ())
    if "valuefn.GridOperator.apply" in found and "valuefn.compute_h" in found:
        m["valuefn.h_iterations"] = sum(
            1 for i in applies if has_ancestor(spans, i, "valuefn.compute_h"))
    if "valuefn.value_iterate" in found:
        m["valuefn.value_iterate_s"] = total("valuefn.value_iterate")
        stages = stage_durations(spans) if "valuefn.GridOperator.apply" in found else []
        if stages:
            m["valuefn.stage_s"] = statistics.mean(stages)
    if "controlled.estimate_cost_J" in found:
        est = by_name.get("controlled.estimate_cost_J", ())
        m["controlled.estimate_s"] = total("controlled.estimate_cost_J")
        counts: dict[int, int] = {}
        for i in est:
            for k, c in (spans[i][NOTE] or {}).items():
                counts[k] = counts.get(k, 0) + c
        paths = sum(counts.values())
        if paths:
            m["controlled.paths"] = paths
            m["controlled.interventions_per_path"] = (
                sum(k * c for k, c in counts.items()) / paths)
        if "numpy.default_rng" in found:
            rng = [i for i in by_name.get("numpy.default_rng", ())
                   if has_ancestor(spans, i, "controlled.estimate_cost_J")]
            if rng and m["controlled.estimate_s"] > 0:
                rng_s = sum(dur(i) for i in rng)
                m["controlled.rng_init_us"] = rng_s / len(rng) * 1e6
                m["controlled.rng_share"] = rng_s / m["controlled.estimate_s"]
    if "dynamics.simulate_uncontrolled" in found:
        check_s = total("bench.uncontrolled_check")
        if check_s > 0:
            m["dynamics.uncontrolled_paths_per_s"] = (
                count("dynamics.simulate_uncontrolled") / check_s)
    for name, key in (("artifact.save_policy", "artifact.save_s"),
                      ("artifact.load_policy", "artifact.load_s"),
                      ("model.load_model", "model.load_s")):
        if count(name):
            m[key] = total(name) / count(name)
    selfs = self_times(spans)
    m["cli.self_s"] = sum(selfs[i] for i in by_name.get("cli.compute-value", ()))
    m["cli.self_s"] += sum(selfs[i] for i in by_name.get("cli.simulate", ()))
    return m


def output_counts(bench: Bench) -> tuple[dict, list[int]]:
    """Counts read from the program's outputs and from replayed paths, and
    the intervention-node count of each budget stage."""
    pkg, model, w = bench.pkg, bench.model, bench.w
    artifact = bench.last_artifact
    table = pkg.artifact.load_policy(artifact, model)
    intervene = [sum(int((~wait).sum()) for wait in stage.wait.values())
                 for stage in table.stages]
    m = {
        "artifact.kb": artifact.stat().st_size / 1000,
        "valuefn.nodes": sum(int(np.prod([len(a) for a in axes]))
                             for axes in table.axes.values()),
        "valuefn.intervene_nodes": sum(intervene),
    }
    steps = []
    jumps = []
    horizon = pkg.dynamics.default_horizon(model)
    for label in w.starts:
        x0 = parse_state(pkg, label)
        for n0 in (int(v) for v in w.n0.split(",")):
            for rep in range(REPLAY):
                traj = pkg.simulate_controlled(x0, n0, table, model,
                                               np.random.default_rng([bench.seed, rep]))
                steps.append(len(traj.events))
        for rep in range(REPLAY):
            rec = pkg.dynamics.simulate_uncontrolled(
                model, x0, horizon, np.random.default_rng([bench.seed, rep]))
            jumps.append(len(rec.events))
    m["controlled.steps_per_path"] = statistics.mean(steps)
    m["dynamics.jumps_per_path"] = statistics.mean(jumps)

    queries = []
    for mode, axes in table.axes.items():
        lo, hi = table.coverage[mode]
        side = 200 if len(axes) == 1 else 15
        grids = [np.linspace(a + 1e-3 * (b - a), b - 1e-3 * (b - a), side)
                 for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*grids, indexing="ij")
        queries += [pkg.StatePoint(mode, tuple(float(v) for v in p))
                    for p in np.stack([g.ravel() for g in mesh], axis=-1)]
    start = time.perf_counter()
    for n in range(1, table.n_max + 1):
        for x in queries:
            pkg.policy_query(table, x, n, model=model)
    calls = len(queries) * table.n_max
    m["valuefn.policy_query_us"] = (time.perf_counter() - start) / calls * 1e6
    return m, intervene


def traced(bench: Bench, seconds: float, tally: dict) -> tuple[dict, dict]:
    plain, timed, per_iter = [], [], []
    raw = {"untraced_iteration_s": plain, "traced_iteration_s": timed}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        guarded(bench.iteration, tally)
        plain.append(time.perf_counter() - t0)
        tracer = Tracer()
        found = install(tracer, bench)
        bench.tracer = tracer
        t0 = time.perf_counter()
        try:
            sample = guarded(bench.iteration, tally)
        finally:
            tracer.restore()
            bench.tracer = None
        timed.append(time.perf_counter() - t0)
        if sample is not None:
            per_iter.append(layer_metrics(tracer.spans, found))
            raw["valuefn.stage_s_per_stage"] = stage_durations(tracer.spans)
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    metrics = {}
    if per_iter:
        for key in per_iter[0]:
            metrics[key] = statistics.median(it[key] for it in per_iter if key in it)
        counts, raw["valuefn.intervene_nodes_per_stage"] = output_counts(bench)
        metrics.update(counts)
        metrics["trace.overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1
    tracer.write(OUT_ROOT / f"trace-{bench.name}.jsonl")
    return metrics, raw


PER_LAYER_UNITS = {
    "operators.refine_s": "s", "operators.refine_evals": "count",
    "operators.flow_profile_s": "s", "operators.flow_profile_builds": "count",
    "operators.jcurve_s": "s", "operators.jcurve_builds": "count",
    "valuefn.grid_operator_s": "s", "valuefn.grid_operator_builds": "count",
    "valuefn.operator_mb": "MB", "valuefn.h_s": "s", "valuefn.h_iterations": "count",
    "valuefn.axes_s": "s", "valuefn.nodes": "count", "valuefn.value_iterate_s": "s",
    "valuefn.stage_s": "s", "valuefn.intervene_nodes": "count",
    "valuefn.policy_query_us": "us", "controlled.estimate_s": "s",
    "controlled.paths": "count", "controlled.steps_per_path": "count",
    "controlled.interventions_per_path": "count", "controlled.rng_init_us": "us",
    "controlled.rng_share": "frac", "dynamics.uncontrolled_paths_per_s": "1/s",
    "dynamics.jumps_per_path": "count", "artifact.save_s": "s", "artifact.load_s": "s",
    "artifact.kb": "KB", "cli.self_s": "s", "model.load_s": "s",
    "trace.overhead_frac": "frac",
}


def openblas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="Monte Carlo master seed")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time; at least two operations always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    if sha256(PLANAR) != PLANAR_SHA256:
        raise SystemExit(f"bench: {PLANAR} does not match its pinned sha256")
    OUT_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    tally = {"attempted": 0, "failed": 0}
    try:
        bench = Bench(pkg, args.workload, args.seed, tmp)
        if args.trace:
            values, raw = traced(bench, args.seconds, tally)
            units = PER_LAYER_UNITS
        else:
            values, raw = end_to_end(bench, args.seconds, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "samples": {k: summary(v) for k, v in raw.items()},
        "fail_rate": tally["failed"] / max(tally["attempted"], 1),
    }
    print(json.dumps(details))
    print(json.dumps({"correct": tally["failed"] == 0 and len(metrics) == len(units),
                      "attempted": tally["attempted"], "failed": tally["failed"],
                      "metrics": metrics}))
    return 0 if tally["attempted"] > tally["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
