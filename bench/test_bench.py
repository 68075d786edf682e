"""The benchmark's own tests: every workload at a tiny size, the declared
metric names, and failures being counted.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import pytest

import run
import tracing
import worker
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(declared: list) -> dict:
    return {m["name"]: m["unit"] for m in declared}


def test_workloads_are_the_declared_ones():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in DECLARED["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_with_declared_metrics(workload, trace):
    record = run.measure(workload, seed=3, seconds=1, trace=trace, tiny=True)
    result = record["result"]
    assert result["correct"], [s["errors"] for s in record["samples"] if s["errors"]]
    assert result["failed"] == 0 and result["attempted"] >= 2
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(DECLARED["per_layer" if trace else "end_to_end"])
    if trace:
        plain, traced = (s for s in record["samples"] if s["tag"].startswith("s0-"))
        assert plain["reports_sha256"] == traced["reports_sha256"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_output_check_is_counted(monkeypatch):
    # sr-default does not recover effects exactly, so the twin check must fail.
    wrong = dataclasses.replace(workloads.WORKLOADS["sr-default"], checks=("exact_twins",))
    monkeypatch.setitem(workloads.WORKLOADS, "sr-default", wrong)
    record = run.measure("sr-default", seed=0, seconds=1, trace=False, tiny=True)
    samples = [s for s in record["samples"] if s["mode"] == "run"]
    assert samples and all("not 0.0" in s["errors"][-1] for s in samples)
    assert record["result"]["failed"] == len(samples)
    assert not record["result"]["correct"]


def test_differing_rerun_is_counted(monkeypatch):
    spawn = run._spawn

    def corrupt_second(run_dir, tag, *args, **kwargs):
        result = spawn(run_dir, tag, *args, **kwargs)
        if tag == "s1-run":
            result["reports_sha256"] = hashlib.sha256(b"corrupted").hexdigest()
        return result

    monkeypatch.setattr(run, "_spawn", corrupt_second)
    record = run.measure("twin-match", seed=0, seconds=1, trace=False, tiny=True)
    assert record["result"]["failed"] == 1
    assert not record["result"]["correct"]


def _run_in_process(name: str, out):
    from deepmatch import experiments

    doc = workloads.configs(name, seed=1, tiny=True)[0]
    calls: list = []
    original = worker._capture_score_matches(experiments, calls)
    try:
        if doc["experiment"] == "swissroll":
            experiments.run_swissroll(experiments.parse_swissroll(doc), out)
        else:
            experiments.run_propensity(experiments.parse_propensity(doc), out)
    finally:
        experiments.propensity_match = original
    return calls


def test_twin_check_catches_a_corrupted_report(tmp_path):
    _run_in_process("twin-match", tmp_path)
    assert worker.check_outputs(("exact_twins",), tmp_path, [])[1] == []
    path = tmp_path / "reports.json"
    doc = json.loads(path.read_text())
    doc["reports"][0]["mean_abs_ite_error"] = 1e-300
    path.write_text(json.dumps(doc))
    assert worker.check_outputs(("exact_twins",), tmp_path, [])[1]


def test_score_scan_catches_a_corrupted_match(tmp_path):
    calls = _run_in_process("ps-scale", tmp_path)
    assert worker.check_outputs(("score_scan",), tmp_path, calls)[1] == []
    path = tmp_path / "matched_pairs_logistic.csv"
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("matched_index")
    cells = rows[0].split(",")
    cells[col] = str(int(cells[col]) + 1 if int(cells[col]) + 1 < 400 else 200)
    rows[0] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    errors = worker.check_outputs(("score_scan",), tmp_path, calls)[1]
    assert errors and "logistic: query" in errors[0]


def test_tracer_restores_every_wrapped_attribute():
    before = {}
    for module_name, path, *_ in tracing.TRACED:
        owner, attr = tracing._resolve(module_name, path)
        before[(module_name, path)] = vars(owner)[attr]
    tracer = tracing.Tracer()
    tracer.install()
    owner, attr = tracing._resolve("deepmatch.embedding", "symmetric_eigh")
    assert vars(owner)[attr] is not before[("deepmatch.embedding", "symmetric_eigh")]
    tracer.restore()
    for (module_name, path), original in before.items():
        owner, attr = tracing._resolve(module_name, path)
        assert vars(owner)[attr] is original
