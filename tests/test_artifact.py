import json

import numpy as np
import pytest

from pdmp_impulse.artifact import load_policy, save_policy
from pdmp_impulse.errors import ArtifactMismatchError
from pdmp_impulse.model import load_model

from conftest import rm1_doc


def test_round_trip_preserves_every_value(tmp_path, rm1, rm1_table):
    path = tmp_path / "policy.pdmpval"
    save_policy(path, rm1_table)
    loaded = load_policy(path, rm1)
    assert loaded.eps == rm1_table.eps
    assert loaded.n_max == rm1_table.n_max
    assert loaded.control_set == rm1_table.control_set
    for m in rm1_table.axes:
        assert np.array_equal(loaded.axes[m][0], rm1_table.axes[m][0])
        assert np.array_equal(loaded.h.values[m], rm1_table.h.values[m])
    for got, want in zip(loaded.stages, rm1_table.stages):
        for m in want.value:
            assert np.array_equal(got.value[m], want.value[m])
            assert np.array_equal(got.r[m], want.r[m])
            assert np.array_equal(got.wait[m], want.wait[m])
            assert np.array_equal(got.y_index[m], want.y_index[m])


def test_save_is_deterministic(tmp_path, rm1_table):
    a = tmp_path / "a.pdmpval"
    b = tmp_path / "b.pdmpval"
    save_policy(a, rm1_table)
    save_policy(b, rm1_table)
    assert a.read_bytes() == b.read_bytes()


def test_model_hash_guard(tmp_path, rm1_table):
    path = tmp_path / "policy.pdmpval"
    save_policy(path, rm1_table)
    doc = rm1_doc()
    doc["discount"] = 0.6
    other = load_model(doc)
    with pytest.raises(ArtifactMismatchError, match="different model"):
        load_policy(path, other)
    # Loading without a model skips the guard.
    assert load_policy(path).n_max == rm1_table.n_max


def test_format_tag_guard(tmp_path, rm1_table):
    path = tmp_path / "policy.pdmpval"
    save_policy(path, rm1_table)
    payload = json.loads(path.read_text())
    payload["format"] = "pdmpval/999"
    path.write_text(json.dumps(payload))
    with pytest.raises(ArtifactMismatchError, match="format"):
        load_policy(path)


def _drop_stages(payload):
    del payload["stages"]


def _truncate_value(payload):
    payload["stages"][0]["1"]["value"].pop()


def _restart_index_out_of_range(payload):
    payload["stages"][0]["1"]["y_index"][0] = 7


def _nan_r(payload):
    payload["stages"][0]["2"]["r"][3] = float("nan")


def _drop_control_point(payload):
    payload["control_set"].pop()


def _shorten_h_axis(payload):
    payload["h"]["1"]["axes"][0].pop()


def _stage_count_below_n_max(payload):
    payload["stages"].pop()


def _infinite_h_value(payload):
    payload["h"]["2"]["values"][0] = float("inf")


def _wait_flag_not_boolean(payload):
    payload["stages"][0]["1"]["wait"][0] = 2


@pytest.mark.parametrize("corrupt", [
    _drop_stages, _truncate_value, _restart_index_out_of_range, _nan_r,
    _drop_control_point, _shorten_h_axis, _stage_count_below_n_max,
    _infinite_h_value, _wait_flag_not_boolean,
])
def test_corrupt_artifact_is_mismatch(tmp_path, rm1, rm1_table, corrupt):
    path = tmp_path / "policy.pdmpval"
    save_policy(path, rm1_table)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ArtifactMismatchError):
        load_policy(path, rm1)
