"""Command-line front end: validate, compute-value, simulate, report.

All outputs are deterministic for a fixed (config, seed): CSV floats are
written with repr (exact round-trip), artifacts use canonical JSON, and no
timestamps are embedded.  Exit codes: 0 success, 1 I/O, 2 validation failure,
3 numerical non-convergence, 4 artifact/model mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .artifact import load_policy, save_policy
from .controlled import estimate_cost_J, simulate_controlled
from .dynamics import _check_start
from .errors import (
    ArtifactMismatchError,
    ModelParseError,
    ModelValidationError,
    NumericalError,
    PdmpError,
)
from .model import StatePoint, load_model, validate_model
from .operators import BRANCH_INTERVENE, BRANCH_WAIT, JCurve, MinRelocationValue, state_profile
from .valuefn import GridSpec, check_positive, compute_h, value_iterate

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4


def _parse_x0(text: str) -> StatePoint:
    try:
        mode_part, coord_part = text.split(":", 1)
        coords = tuple(float(v) for v in coord_part.split(","))
        return StatePoint(int(mode_part), coords)
    except (ValueError, IndexError):
        raise ModelParseError(
            f"cannot parse start point {text!r}; expected MODE:Z1[,Z2,...]"
        ) from None


def _parse_n0(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ModelParseError(f"cannot parse budget list {text!r}") from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _state_label(x: StatePoint) -> str:
    return f"{x.mode}:" + ",".join(repr(z) for z in x.zeta)


def _load_model_file(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise FileNotFoundError(path_text)
    return load_model(path)


def cmd_validate(args) -> int:
    model = _load_model_file(args.model)
    report = validate_model(model, grid_density=args.grid_density,
                            rng_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "validation_report.json").write_text(report.to_json())
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


def _grid_spec_from_args(args, starts: list[StatePoint]) -> GridSpec:
    extra: dict[int, tuple[tuple[float, ...], ...]] = {}
    for x in starts:
        extra.setdefault(x.mode, ())
        extra[x.mode] = extra[x.mode] + (x.zeta,)
    return GridSpec(density=args.grid, extra_points=extra or None)


def _parse_starts(model, args) -> list[StatePoint]:
    """The --x0 start points, each checked against the model: a declared
    mode, the model's dimension and a point interior to its region."""
    starts = [_parse_x0(t) for t in args.x0 or []]
    for x in starts:
        _check_start(model, x.mode, x.zeta)
    return starts


def cmd_compute_value(args) -> int:
    model = _load_model_file(args.model)
    starts = _parse_starts(model, args)
    check_positive(args.eps, "eps")
    if args.nmax < 1:
        raise ModelParseError(f"--nmax must be at least 1, got {args.nmax}")
    spec = _grid_spec_from_args(args, starts)
    h = compute_h(model, spec)
    table = value_iterate(model, h, n_max=args.nmax, eps=args.eps)
    table.grid_spec = {"density": args.grid, "eps": args.eps, "nmax": args.nmax}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = out_dir / "policy.pdmpval"
    save_policy(artifact_path, table)

    rows = []
    for k in range(1, args.nmax + 1):
        stage = table.stages[k - 1]
        sup_v = max(float(v.max()) for v in stage.value.values())
        n_intervene = sum(int((~w).sum()) for w in stage.wait.values())
        rows.append([k, sup_v, n_intervene])
        print(f"k={k}: sup V_k = {sup_v:.6f}, intervention nodes = {n_intervene}")
    _write_csv(out_dir / "value_summary.csv", ["k", "sup_V", "intervene_nodes"], rows)

    if args.check_sandwich:
        fine = value_iterate(model, h, n_max=args.nmax, eps=args.eps / 100.0)
        ok = True
        worst_lo = worst_hi = 0.0
        for k in range(1, args.nmax + 1):
            for m in model.mode_ids:
                diff = table.stages[k - 1].value[m] - fine.stages[k - 1].value[m]
                lo = float(diff.min())
                hi = float(diff.max())
                worst_lo = min(worst_lo, lo)
                worst_hi = max(worst_hi, hi - k * args.eps)
                if lo < -1e-3 or hi > k * args.eps + 1e-3:
                    ok = False
        print(
            f"[{'PASS' if ok else 'FAIL'}] sandwich check vs eps/100: "
            f"min diff {worst_lo:.2e}, max excess {worst_hi:.2e}"
        )
        if not ok:
            return EXIT_NUMERICAL
    print(f"artifact written to {artifact_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model_file(args.model)
    out_dir = Path(args.out)
    artifact_path = Path(args.artifact) if args.artifact else out_dir / "policy.pdmpval"
    if not artifact_path.exists():
        print(f"artifact not found: {artifact_path}", file=sys.stderr)
        return EXIT_IO
    table = load_policy(artifact_path, model)
    starts = _parse_starts(model, args)
    if not starts:
        raise ModelParseError("simulate requires at least one --x0")
    budgets = _parse_n0(args.n0)
    rows = []
    sample_rows = []
    for x0 in starts:
        for n0 in budgets:
            est = estimate_cost_J(x0, n0, table, model,
                                  replicates=args.replicates, seed=args.seed)
            v_ref = table.value(n0, x0)
            # A standard error within rounding of the mean measures no deviation.
            measured = est.std_error > np.spacing(abs(est.mean))
            dev = abs(est.mean - v_ref) / est.std_error if measured else math.nan
            rows.append([
                _state_label(x0), n0, table.eps, args.replicates,
                est.mean, est.std_error, est.ci95[0], est.ci95[1], v_ref, dev,
            ])
            shown = f"{dev:.2f}" if measured else "n/a"
            print(
                f"x0={_state_label(x0)} N0={n0}: mean={est.mean:.6f} "
                f"se={est.std_error:.2e} V={v_ref:.6f} |dev|/se={shown}"
            )
            if args.dump_costs:
                sample_rows += [[_state_label(x0), n0, cost] for cost in est.totals.tolist()]
    _write_csv(
        out_dir / "cost_report.csv",
        ["x0", "N0", "eps", "replicates", "mean", "se", "ci_lo", "ci_hi",
         "V_N0", "abs_dev_over_se"],
        rows,
    )
    if args.dump_costs:
        _write_csv(out_dir / "costs_samples.csv", ["x0", "N0", "cost"], sample_rows)
    if args.dump_trajectories:
        lines = []
        for x0 in starts:
            for n0 in budgets:
                for rep in range(args.dump_trajectories):
                    rng = np.random.default_rng([args.seed, rep])
                    traj = simulate_controlled(x0, n0, table, model, rng)
                    lines.append(traj.to_json_line())
        (out_dir / "trajectories.jsonl").write_text("\n".join(lines) + "\n")
    print(f"cost report written to {out_dir / 'cost_report.csv'}")
    return EXIT_OK


def cmd_report(args) -> int:
    model = _load_model_file(args.model)
    out_dir = Path(args.out)
    artifact_path = Path(args.artifact) if args.artifact else out_dir / "policy.pdmpval"
    if not artifact_path.exists():
        print(f"artifact not found: {artifact_path}", file=sys.stderr)
        return EXIT_IO
    table = load_policy(artifact_path, model)
    starts = _parse_starts(model, args)

    v_rows = []
    r_rows = []
    for k in range(1, table.n_max + 1):
        stage = table.stages[k - 1]
        for m in sorted(table.axes):
            pos = table.node_positions(m)
            values = stage.value[m].ravel()
            waits = stage.wait[m].ravel()
            rs = stage.r[m].ravel()
            ys = stage.y_index[m].ravel()
            for i in range(pos.shape[0]):
                coords = list(pos[i])
                v_rows.append([k, m] + coords + [float(values[i])])
                branch = BRANCH_WAIT if waits[i] else BRANCH_INTERVENE
                r_rows.append([k, m] + coords + [branch, float(rs[i]), int(ys[i])])
    dim = model.dim
    coord_cols = [f"zeta{i}" for i in range(dim)]
    _write_csv(out_dir / "v_curves.csv", ["k", "mode"] + coord_cols + ["V"], v_rows)
    _write_csv(out_dir / "r_eps_map.csv",
               ["k", "mode"] + coord_cols + ["branch", "r", "y_index"], r_rows)

    for x0 in starts:
        for k in range(1, table.n_max + 1):
            prev = table.value_store(k - 1)
            phi = [prev.eval(y) for y in table.control_set]
            reloc = MinRelocationValue(model, phi)
            curve = JCurve(state_profile(model, x0), reloc, prev)
            name = f"j_profile_k{k}_m{x0.mode}_" + "_".join(
                str(z) for z in x0.zeta
            ) + ".csv"
            _write_csv(out_dir / name, ["t", "J"],
                       [[float(t), float(v)]
                        for t, v in zip(curve.profile.tgrid[0], curve.values[0])])

    samples = out_dir / "costs_samples.csv"
    if samples.exists():
        hist_rows = []
        with open(samples) as fh:
            reader = csv.DictReader(fh)
            groups: dict[tuple[str, str], list[float]] = {}
            for row in reader:
                groups.setdefault((row["x0"], row["N0"]), []).append(float(row["cost"]))
        for (x0_label, n0), costs in sorted(groups.items()):
            arr = np.asarray(costs)
            span = (arr.min(), arr.max())
            # 40 bins need distinct edges; a spread of a few ulps is widened as a zero one.
            if not np.all(np.diff(np.linspace(*span, 41)) > 0):
                span = (span[0] - 0.5, span[1] + 0.5)
            counts, edges = np.histogram(arr, bins=40, range=span)
            for j in range(len(counts)):
                hist_rows.append([x0_label, n0, float(edges[j]), float(edges[j + 1]),
                                  int(counts[j])])
        _write_csv(out_dir / "mc_hist.csv",
                   ["x0", "N0", "bin_lo", "bin_hi", "count"], hist_rows)
    print(f"report bundles written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmp-impulse",
        description="Impulse-control toolkit for piecewise deterministic "
                    "Markov processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default="out", help="output directory")

    p_val = sub.add_parser("validate", help="check model assumptions")
    common(p_val)
    p_val.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p_val.add_argument("--grid-density", type=int, default=50)
    p_val.set_defaults(func=cmd_validate)

    p_cv = sub.add_parser("compute-value", help="compute h, V_k and the policy")
    common(p_cv)
    p_cv.add_argument("--eps", type=float, default=0.01)
    p_cv.add_argument("--nmax", type=int, default=3)
    p_cv.add_argument("--grid", type=int, default=200, help="nodes per mode axis")
    p_cv.add_argument("--x0", action="append",
                      help="start point MODE:Z1[,Z2...]; pinned as grid node")
    p_cv.add_argument("--check-sandwich", action="store_true",
                      help="also run eps/100 and verify the sandwich bounds")
    p_cv.set_defaults(func=cmd_compute_value)

    p_sim = sub.add_parser("simulate", help="Monte Carlo strategy-cost estimates")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p_sim.add_argument("--artifact", help="policy artifact (default <out>/policy.pdmpval)")
    p_sim.add_argument("--x0", action="append", required=True)
    p_sim.add_argument("--n0", default="0", help="comma-separated budgets")
    p_sim.add_argument("--replicates", type=int, default=10_000)
    p_sim.add_argument("--dump-costs", action="store_true")
    p_sim.add_argument("--dump-trajectories", type=int, default=0,
                       help="write this many trajectories per row as JSON lines")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="plot-ready CSV bundles")
    common(p_rep)
    p_rep.add_argument("--artifact", help="policy artifact (default <out>/policy.pdmpval)")
    p_rep.add_argument("--x0", action="append",
                       help="states whose jump-or-intervene curves to dump")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--seed", getattr(args, "seed", 0)),
                        ("--dump-trajectories", getattr(args, "dump_trajectories", 0))):
        if value < 0:
            print(f"error: {flag} must be non-negative, got {value}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"cannot parse JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArtifactMismatchError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ModelParseError, ModelValidationError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PdmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
