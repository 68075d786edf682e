import json
import re

import numpy as np
import pytest

from deepmatch.embedding import fit_pca, load_embedder, save_embedder
from deepmatch.network import LayerSpec, NetworkSpec, init_network, load_model, save_model
from deepmatch.persist import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ModelFileError,
    read_model,
    write_model,
)
from deepmatch.propensity import LogisticModel, load_propensity_model, save_propensity_model


def test_round_trip(tmp_path):
    path = tmp_path / "m.json"
    write_model(path, "widget", {"alpha": [1.5, 2.5], "beta": "x"})
    kind, doc = read_model(path)
    assert kind == "widget"
    assert doc["alpha"] == [1.5, 2.5]
    assert doc["beta"] == "x"
    assert doc["format"] == FORMAT_NAME
    assert doc["version"] == FORMAT_VERSION


def test_expected_kind_enforced(tmp_path):
    path = tmp_path / "m.json"
    write_model(path, "widget", {})
    read_model(path, expected_kind="widget")
    with pytest.raises(ModelFileError, match="expected kind"):
        read_model(path, expected_kind="gadget")


def test_corrupt_json_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFileError, match="corrupt"):
        read_model(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.json"
    write_model(path, "widget", {"alpha": list(range(100))})
    full = path.read_text(encoding="utf-8")
    path.write_text(full[: len(full) // 2], encoding="utf-8")
    with pytest.raises(ModelFileError):
        read_model(path)


def test_foreign_json_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(ModelFileError, match=FORMAT_NAME):
        read_model(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "m.json"
    write_model(path, "widget", {})
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelFileError, match="version"):
        read_model(path)


def test_float_values_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(5)
    values = (rng.standard_normal(64) * 10.0 ** rng.integers(-8, 9, size=64)).tolist()
    path = tmp_path / "m.json"
    write_model(path, "widget", {"values": values})
    _, doc = read_model(path)
    assert doc["values"] == values


def _network_with(value):
    net = init_network(NetworkSpec((LayerSpec(2, 3, activation="tanh"), LayerSpec(3, 1))), seed=0)
    net.weights[1][0, 2] = value
    return net


def _pca_with(value):
    e = fit_pca(np.random.default_rng(0).standard_normal((30, 3)), 2)
    e.mean[1] = value
    return e


def _logistic_with(value):
    return LogisticModel(intercept=0.5, coef=np.array([1.0, value]))


@pytest.mark.parametrize(
    "build, save, load, token",
    [
        (_network_with, save_model, load_model, "NaN"),
        (_pca_with, save_embedder, load_embedder, "Infinity"),
        (_logistic_with, save_propensity_model, load_propensity_model, "-Infinity"),
    ],
    ids=["network", "pca", "logistic"],
)
def test_non_finite_numbers_refused_on_write_and_rejected_on_read(
    tmp_path, build, save, load, token
):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        save(build(float(token)), path)
    assert not path.exists()
    # a file edited to hold the constant must not load as a model
    save(build(0.125), path)
    text = path.read_text(encoding="utf-8")
    assert text.count("0.125") == 1
    path.write_text(text.replace("0.125", token), encoding="utf-8")
    with pytest.raises(ModelFileError, match=re.escape(f"{path}: non-finite number {token}")):
        load(path)
