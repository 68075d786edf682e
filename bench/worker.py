"""One benchmark sample in a fresh process: set up, run one pipeline, check it.

    python3 bench/worker.py SPEC.json

SPEC is written by `run.py`. It holds the config document the program
receives (`doc`), the sample's output directory (`out`), where to write the
result (`result`), the workload's extra output checks (`checks`), and
`mode`: "setup" stops once the pipeline is ready to run; "run" also runs
it, through the same calls `deepmatch.cli` makes, and checks the outputs;
"trace" does the same with the timing wrappers of `tracing.py` installed.

The result records the monotonic clock at the moment set-up finished (the
parent subtracts its own clock at spawn time, so set-up includes
interpreter start and imports), the pipeline's wall time, the process's
peak RSS, and every output check that failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

# Queries whose first score match is re-derived by the benchmark's own scan.
SCAN_SAMPLE = 500


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_outputs(checks, out: Path, score_calls: list) -> tuple[dict, list]:
    """Quality values and failed checks of one pipeline's output directory.

    Every report value must be finite. "exact_twins": every method's
    mean_abs_ite_error is exactly 0.0. "score_scan": on a fixed sample of
    queries, the first match is the opposite-arm unit at the minimum score
    distance, lowest index on ties, recomputed here from the score vector
    each `propensity_match` call received.
    """
    errors: list = []
    quality: dict = {}
    doc = json.loads((out / "reports.json").read_text())
    for report in doc["reports"]:
        for key, value in report.items():
            if isinstance(value, float) and not math.isfinite(value):
                errors.append(f"{report['method']}: {key} is {value}")
        if "mean_abs_ite_error" in report:
            quality[f"metrics.ite_mae.{report['method']}"] = report["mean_abs_ite_error"]
            if "exact_twins" in checks and report["mean_abs_ite_error"] != 0.0:
                errors.append(
                    f"{report['method']}: twin ITE error {report['mean_abs_ite_error']!r}, not 0.0"
                )
        if "misassignment_rate_pct" in report:
            quality[f"metrics.misassign_pct.{report['method']}"] = report["misassignment_rate_pct"]

    if "score_scan" in checks:
        methods = [r["method"] for r in doc["reports"]]
        if len(score_calls) != len(methods):
            errors.append(f"captured {len(score_calls)} score matches for {len(methods)} methods")
            return quality, errors
        for method, (scores, w, query_arm) in zip(methods, score_calls):
            header, rows = _read_csv(out / f"matched_pairs_{method}.csv")
            col = {name: header.index(name) for name in
                   ("query_index", "score", "matched_index", "matched_score")}
            cand = np.flatnonzero(w != query_arm)
            step = max(1, len(rows) // SCAN_SAMPLE)
            for row in rows[::step]:
                q, got = int(row[col["query_index"]]), int(row[col["matched_index"]])
                dist = np.abs(scores[cand] - scores[q])
                best = int(cand[np.flatnonzero(dist == dist.min())[0]])
                if (
                    got != best
                    or float(row[col["score"]]) != scores[q]
                    or float(row[col["matched_score"]]) != scores[got]
                ):
                    errors.append(f"{method}: query {q} matched {got}, scan gives {best}")
                    break
    return quality, errors


def _capture_score_matches(experiments, calls: list):
    """Record the scores each `propensity_match` call receives; returns the original.

    The run writes only the queries' scores, so the score_scan check needs
    this. It is the one wrapper an untraced sample carries: one extra Python
    call and one copy of the score vector per method.
    """
    original = experiments.propensity_match

    def capture(scores, w, query_arm=1):
        calls.append((np.array(scores, dtype=float), np.asarray(w), query_arm))
        return original(scores, w, query_arm=query_arm)

    experiments.propensity_match = capture
    return original


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result: dict = {"errors": []}
    try:
        from deepmatch import experiments

        doc = spec["doc"]
        parse, run = {
            "swissroll": (experiments.parse_swissroll, "run_swissroll"),
            "propensity": (experiments.parse_propensity, "run_propensity"),
        }[doc["experiment"]]
        cfg = parse(doc)
        out = experiments.prepare_out_dir(spec["out"])
        result["ready"] = time.monotonic()
        if spec.get("meta"):
            result["meta"] = _runtime_meta()
        if spec["mode"] != "setup":
            _run_sample(spec, experiments, run, cfg, out, result)
    except Exception:  # the sample is the unit of failure; record and report
        result["errors"].append(traceback.format_exc())
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def _run_sample(spec, experiments, run, cfg, out: Path, result: dict) -> None:
    score_calls: list = []
    captured = None
    if "score_scan" in spec["checks"]:
        captured = _capture_score_matches(experiments, score_calls)
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        getattr(experiments, run)(cfg, out)
        result["wall_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        if captured is not None:
            experiments.propensity_match = captured
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    result["reports_sha256"] = hashlib.sha256((out / "reports.json").read_bytes()).hexdigest()
    result["quality"], errors = check_outputs(spec["checks"], out, score_calls)
    result["errors"].extend(errors)
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, result["bytes_written"])
        names = sorted({s[0] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        Path(spec["spans"]).write_text(json.dumps({
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p, _ in tracer.spans],
        }))


def _runtime_meta() -> dict:
    """numpy/OpenBLAS versions and the BLAS thread count this process sees."""
    # Imported here, after set-up was timed, since only the warm-up needs them.
    import ctypes
    import glob
    import platform

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                get = getattr(ctypes.CDLL(lib), symbol)
            except (AttributeError, OSError):
                continue
            get.restype = ctypes.c_int
            threads = get()
            break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
