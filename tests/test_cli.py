import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pdmp_impulse.cli import main

from conftest import MODEL_PATH, rm1_doc


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One compute-value artifact shared by the simulate/report tests."""
    out = tmp_path_factory.mktemp("cli_out")
    code = run_cli(
        "compute-value", "--model", MODEL_PATH, "--out", out,
        "--eps", "0.01", "--nmax", "2", "--grid", "80", "--x0", "1:2.0",
    )
    assert code == 0
    return out


def test_validate_ok(tmp_path):
    assert run_cli("validate", "--model", MODEL_PATH, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert report["passed"] is True


def test_validate_failure_exit_code(tmp_path):
    doc = rm1_doc()
    doc["costs"]["intervention"] = {"kind": "per_target", "values": [1.0, 0.0]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("validate", "--model", bad, "--out", tmp_path) == 2


def test_missing_model_file_is_io_error(tmp_path):
    assert run_cli("validate", "--model", tmp_path / "nope.json",
                   "--out", tmp_path) == 1


def test_malformed_model_is_validation_error(tmp_path):
    doc = rm1_doc()
    del doc["discount"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("compute-value", "--model", bad, "--out", tmp_path) == 2


def test_compute_value_outputs(cli_workspace):
    assert (cli_workspace / "policy.pdmpval").exists()
    with open(cli_workspace / "value_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["1", "2"]
    assert float(rows[0]["sup_V"]) > 0


def test_compute_value_deterministic(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(
            "compute-value", "--model", MODEL_PATH, "--out", tmp_path / sub,
            "--eps", "0.02", "--nmax", "1", "--grid", "40", "--seed", "5",
        )
        assert code == 0
    for name in ("policy.pdmpval", "value_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_report_rows_cover_reference_values(cli_workspace, rm1, rm1_h):
    code = run_cli(
        "simulate", "--model", MODEL_PATH, "--out", cli_workspace,
        "--x0", "1:2.0", "--n0", "0,1,2", "--replicates", "4000", "--seed", "7",
        "--dump-costs", "--dump-trajectories", "3",
    )
    assert code == 0
    with open(cli_workspace / "cost_report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["N0"] for r in rows] == ["0", "1", "2"]
    for row in rows:
        lo, hi = float(row["ci_lo"]), float(row["ci_hi"])
        v_ref = float(row["V_N0"])
        assert lo < v_ref < hi
        assert float(row["abs_dev_over_se"]) < 3.0
    # Cost samples: one per replicate per row.
    with open(cli_workspace / "costs_samples.csv") as fh:
        n_samples = sum(1 for _ in fh) - 1
    assert n_samples == 3 * 4000
    lines = (cli_workspace / "trajectories.jsonl").read_text().splitlines()
    assert len(lines) == 3 * 3
    json.loads(lines[0])


def test_compute_value_zero_cost_model(tmp_path):
    doc = rm1_doc()
    doc["costs"]["running"] = {"1": "0.0", "2": "0.0"}
    doc["costs"]["running_bound"] = 0.0
    model_file = tmp_path / "zero.json"
    model_file.write_text(json.dumps(doc))
    code = run_cli(
        "compute-value", "--model", model_file, "--out", tmp_path,
        "--eps", "0.01", "--nmax", "2", "--grid", "40",
    )
    assert code == 0
    with open(tmp_path / "value_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["sup_V"]) == 0.0 for r in rows)
    assert all(r["intervene_nodes"] == "0" for r in rows)


def test_compute_value_sandwich_flag(tmp_path, capsys):
    code = run_cli(
        "compute-value", "--model", MODEL_PATH, "--out", tmp_path,
        "--eps", "0.01", "--nmax", "1", "--grid", "40", "--check-sandwich",
    )
    assert code == 0
    assert "[PASS] sandwich check" in capsys.readouterr().out


def test_simulate_stale_artifact_exit_code(cli_workspace, tmp_path):
    doc = rm1_doc()
    doc["discount"] = 0.6
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    code = run_cli(
        "simulate", "--model", edited, "--out", cli_workspace,
        "--x0", "1:2.0", "--n0", "0", "--replicates", "100",
    )
    assert code == 4


def test_simulate_missing_artifact(tmp_path):
    code = run_cli(
        "simulate", "--model", MODEL_PATH, "--out", tmp_path,
        "--x0", "1:2.0", "--n0", "0", "--replicates", "100",
    )
    assert code == 1


def test_report_bundles(cli_workspace):
    code = run_cli(
        "report", "--model", MODEL_PATH, "--out", cli_workspace, "--x0", "1:2.0",
    )
    assert code == 0
    with open(cli_workspace / "v_curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    per_group: dict[tuple[str, str], int] = {}
    for r in rows:
        per_group[(r["k"], r["mode"])] = per_group.get((r["k"], r["mode"]), 0) + 1
    # Grid echo: every (k, mode) group carries at least the axis density.
    assert set(per_group) == {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}
    assert all(count >= 80 for count in per_group.values())
    assert (cli_workspace / "r_eps_map.csv").exists()
    assert (cli_workspace / "mc_hist.csv").exists()


def test_report_j_profile_threshold_property(cli_workspace):
    """The dumped curve dips below its minimum + eps at the planned time."""
    from pdmp_impulse.artifact import load_policy

    table = load_policy(cli_workspace / "policy.pdmpval")
    profile_path = cli_workspace / "j_profile_k1_m1_2.0.csv"
    assert profile_path.exists()
    with open(profile_path) as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    j = np.array([float(r["J"]) for r in rows])
    # r at the pinned node (1, 2.0) for budget 1.
    axis = table.axes[1][0]
    idx = int(np.argmin(np.abs(axis - 2.0)))
    assert not table.stages[0].wait[1][idx]
    r = float(table.stages[0].r[1][idx])
    j_at_r = float(np.interp(r, t, j))
    assert j.min() + table.eps > j_at_r - 1e-6


def test_report_without_artifact(tmp_path):
    assert run_cli("report", "--model", MODEL_PATH, "--out", tmp_path) == 1


def test_report_creates_missing_output_dir(cli_workspace, tmp_path):
    fresh = tmp_path / "brand" / "new"
    code = run_cli(
        "report", "--model", MODEL_PATH, "--out", fresh,
        "--artifact", cli_workspace / "policy.pdmpval",
    )
    assert code == 0
    assert (fresh / "v_curves.csv").exists()


def test_bad_x0_argument(cli_workspace):
    code = run_cli(
        "simulate", "--model", MODEL_PATH, "--out", cli_workspace,
        "--x0", "oops", "--n0", "0", "--replicates", "100",
    )
    assert code == 2


@pytest.mark.parametrize("x0", ["3:2.0", "1:2.0,3.0", "1:12.0"])
def test_simulate_bad_start_point_exit_code(cli_workspace, tmp_path, capsys, x0):
    code = run_cli(
        "simulate", "--model", MODEL_PATH, "--out", tmp_path,
        "--artifact", cli_workspace / "policy.pdmpval",
        "--x0", x0, "--n0", "0,1", "--replicates", "100",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "start" in err and "Traceback" not in err
    assert not (tmp_path / "cost_report.csv").exists()
