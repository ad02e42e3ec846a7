import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pdmp_impulse import cli, operators
from pdmp_impulse.cli import main
from pdmp_impulse.errors import DomainError
from pdmp_impulse.model import as_state
from pdmp_impulse.operators import ConstantEvaluable, inf_J, op_Lscript

from conftest import MODEL_PATH, planar_doc, rm1_doc


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


@pytest.mark.parametrize("density", ["0", "1", "-3"])
def test_validate_rejects_grid_density_below_two(tmp_path, capsys, density):
    out = tmp_path / "out"
    assert run_cli("validate", "--model", MODEL_PATH, "--out", out,
                   "--grid-density", density) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "grid density" in err and "Traceback" not in err
    assert not out.exists()


def test_subscript_past_the_dimension_exits_2(tmp_path, capsys):
    doc = rm1_doc()
    doc["costs"]["running"]["1"] = "1.0 + zeta[1]"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("validate", "--model", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "costs.running[1]" in err and "Traceback" not in err


@pytest.mark.parametrize("where, expr", [
    ("intervention", "1.0 + 0.0*m[0]"),
    ("intervention", "1.0 + 0.0*y"),
    ("running", "1.0 + 0.0*zeta"),
])
def test_expression_of_the_wrong_rank_exits_2(tmp_path, capsys, where, expr):
    doc = rm1_doc()
    if where == "running":
        doc["costs"]["running"]["1"] = expr
        field = "costs.running[1]"
    else:
        doc["costs"]["intervention"] = {"kind": "expr", "expr": expr}
        field = "costs.intervention.expr"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("validate", "--model", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err and "Traceback" not in err


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


@pytest.mark.parametrize("flag,value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--nmax", "0"),
])
def test_compute_value_rejects_non_finite_tolerances(tmp_path, monkeypatch, flag, value):
    # --eps and --nmax are checked before the h solve.
    monkeypatch.setattr(cli, "compute_h", None)
    code = run_cli("compute-value", "--model", MODEL_PATH, "--out", tmp_path,
                   "--nmax", "1", "--grid", "20", flag, value)
    assert code == 2
    assert not (tmp_path / "policy.pdmpval").exists()


def test_simulate_corrupt_artifact_exit_code(cli_workspace, tmp_path):
    payload = json.loads((cli_workspace / "policy.pdmpval").read_text())
    payload["stages"][0]["1"]["value"].pop()
    bad = tmp_path / "policy.pdmpval"
    bad.write_text(json.dumps(payload))
    code = run_cli("simulate", "--model", MODEL_PATH, "--out", tmp_path,
                   "--artifact", bad, "--x0", "1:2.0", "--n0", "1",
                   "--replicates", "10")
    assert code == 4


def _command_args(command, artifact, out):
    extra = ["--n0", "1", "--replicates", "10"] if command == "simulate" else []
    return [command, "--model", MODEL_PATH, "--out", out, "--artifact", artifact,
            "--x0", "1:2.0", *extra]


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("damage", ["truncated", "not_utf8"])
def test_unreadable_artifact_exit_code(cli_workspace, tmp_path, capsys, command, damage):
    text = (cli_workspace / "policy.pdmpval").read_bytes()
    bad = tmp_path / "policy.pdmpval"
    bad.write_bytes(text[:30] if damage == "truncated" else b"\xff\xfe" + text)
    assert run_cli(*_command_args(command, bad, tmp_path / "out")) == 4
    assert "artifact" in capsys.readouterr().err


# Entries that build a jump-or-intervene curve from one start state.
_ONE_STATE_ENTRIES = {
    "inf_J": lambda model, h, x: inf_J(model, ConstantEvaluable(1.0), h, x, 0.01),
    "op_Lscript": lambda model, h, x: op_Lscript(model, h, x, 0.01),
}


@pytest.mark.parametrize("entry", [*_ONE_STATE_ENTRIES, "report --x0"])
@pytest.mark.parametrize("zeta", [11.0, 10.0], ids=["outside", "boundary"])
def test_non_interior_start_is_rejected(cli_workspace, tmp_path, rm1, rm1_h, entry, zeta):
    # Mode 1 of rm1 is [0, 10]: 11.0 lies outside it, 10.0 on its boundary.
    if entry == "report --x0":
        # Every start is checked before the first file is written.
        args = _command_args("report", cli_workspace / "policy.pdmpval", tmp_path)
        assert run_cli(*args, "--x0", f"1:{zeta}") == 2
        assert not any(tmp_path.iterdir())
    else:
        with pytest.raises(DomainError, match="interior"):
            _ONE_STATE_ENTRIES[entry](rm1, rm1_h, as_state(1, zeta))


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_malformed_model_with_artifact_exit_code(cli_workspace, tmp_path, command):
    model = tmp_path / "model.json"
    model.write_text(MODEL_PATH.read_text()[:30])
    args = _command_args(command, cli_workspace / "policy.pdmpval", tmp_path / "out")
    args[2] = model
    assert run_cli(*args) == 2


def test_compute_value_deterministic(tmp_path, monkeypatch):
    # Run "c" solves one grid node per chunk; outputs must not change.
    for sub in ("a", "b", "c"):
        if sub == "c":
            monkeypatch.setattr(operators, "CHUNK_ELEMENTS", 1)
        code = run_cli(
            "compute-value", "--model", MODEL_PATH, "--out", tmp_path / sub,
            "--eps", "0.02", "--nmax", "1", "--grid", "40",
        )
        assert code == 0
    for name in ("policy.pdmpval", "value_summary.csv"):
        for sub in ("b", "c"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / sub / name).read_bytes()


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


def test_report_histograms_near_constant_costs(tmp_path):
    """Planar's budget-0 costs agree to a few ulps (constant running cost),
    too narrow a spread for 40 bins; report still writes every group."""
    model = tmp_path / "planar.json"
    model.write_text(json.dumps(planar_doc()))
    common = ("--model", model, "--out", tmp_path, "--x0", "1:3.0,4.0")
    assert run_cli("compute-value", *common, "--grid", "12", "--nmax", "1") == 0
    assert run_cli("simulate", *common, "--n0", "0,1", "--replicates", "200",
                   "--dump-costs") == 0
    with open(tmp_path / "costs_samples.csv") as fh:
        flat = [float(r["cost"]) for r in csv.DictReader(fh) if r["N0"] == "0"]
    assert 0 < max(flat) - min(flat) < 1e-12
    assert run_cli("report", *common) == 0
    with open(tmp_path / "mc_hist.csv") as fh:
        rows = list(csv.DictReader(fh))
    for n0 in ("0", "1"):
        group = [r for r in rows if r["N0"] == n0]
        assert len(group) == 40
        assert sum(int(r["count"]) for r in group) == 200
        assert all(float(r["bin_lo"]) < float(r["bin_hi"]) for r in group)


def test_deviation_is_not_measured_in_rounding_sized_errors(tmp_path, capsys):
    """Planar's budget-0 costs agree to a few ulps, so their standard error is
    rounding noise, while the mean sits 1e-6 below V (the horizon's tail):
    |dev|/se is then nan in the report and n/a on stdout.  rm1's standard
    errors are real and keep their numbers (see
    test_simulate_report_rows_cover_reference_values)."""
    model = tmp_path / "planar.json"
    model.write_text(json.dumps(planar_doc()))
    common = ("--model", model, "--out", tmp_path, "--x0", "1:3.0,4.0")
    assert run_cli("compute-value", *common, "--grid", "12", "--nmax", "1") == 0
    capsys.readouterr()
    assert run_cli("simulate", *common, "--n0", "0", "--replicates", "200") == 0
    [line] = [ln for ln in capsys.readouterr().out.splitlines() if "|dev|/se=" in ln]
    with open(tmp_path / "cost_report.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert float(row["mean"]) != float(row["V_N0"])
    assert float(row["se"]) <= np.spacing(abs(float(row["mean"])))
    assert math.isnan(float(row["abs_dev_over_se"]))
    assert line.endswith("|dev|/se=n/a")


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


_BAD_STARTS = ["3:2.0", "1:2.0,3.0", "1:12.0"]


@pytest.mark.parametrize("command,x0", [
    *(pytest.param("simulate", x0, id=x0) for x0 in _BAD_STARTS),
    *(pytest.param("compute-value", x0, id=f"compute-value-{x0}") for x0 in _BAD_STARTS),
])
def test_simulate_bad_start_point_exit_code(cli_workspace, tmp_path, capsys, command, x0):
    if command == "simulate":
        extra = ["--artifact", cli_workspace / "policy.pdmpval", "--n0", "0,1",
                 "--replicates", "100"]
    else:
        extra = ["--grid", "20", "--nmax", "1"]
    code = run_cli(command, "--model", MODEL_PATH, "--out", tmp_path, "--x0", "1:2.0",
                   "--x0", x0, *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "start" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,flag", [
    pytest.param("simulate", "--seed", id="simulate"),
    pytest.param("validate", "--seed", id="validate"),
    pytest.param("simulate", "--dump-trajectories", id="simulate-dump-trajectories"),
])
def test_negative_seed_exit_code(cli_workspace, tmp_path, capsys, command, flag):
    args = ["--model", MODEL_PATH, "--out", tmp_path, flag, "-1"]
    if command == "simulate":
        args += ["--artifact", cli_workspace / "policy.pdmpval", "--x0", "1:2.0",
                 "--n0", "0,1", "--replicates", "100"]
    code = run_cli(command, *args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())
