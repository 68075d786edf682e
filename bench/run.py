"""deepmatch benchmark: time to result end to end, per-module layer times traced.

    python3 bench/run.py --workload sr-default --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Every sample is a fresh worker process (`worker.py`) with OpenBLAS pinned to
one thread. It receives one config document from `workloads.py` and runs it
through `experiments.parse_*` / `experiments.run_*`, the calls the CLI makes.
Samples repeat until the next one would overrun `--seconds`.

With `--trace 0` the result line carries the end-to-end metrics:

  wall_s       median pipeline wall time of one sample, file writes included
  setup_s      median time from spawning a worker to ready to run: interpreter
               start, `import deepmatch`, config parsing, output directory;
               ten set-up-only workers plus every sample, after one warm-up
  peak_rss_mb  median peak resident set of a sample's process

With `--trace 1` samples run in pairs on the same config, untraced then
traced, and the result line carries the per-layer metrics of `tracing.py`
(the lower median over traced samples, so a count stays one sample's count),
the quality values read from reports.json averaged over the seeds sampled
(0 where the workload has no such method), and `trace.overhead_s`, the
median traced-minus-untraced wall time of a pair.

A sample fails if it raises or fails an output check: non-finite report
values, twin effects not recovered exactly (twin-match), a score match the
benchmark's own scan disagrees with (ps-scale), or a reports.json that
differs from an earlier sample of the same config, traced or not. The last
line of stdout is the result JSON; the lines before it record the machine,
the build and every sample. The same record, with every sample, is written
to `.bench_build/deepmatch-bench/`, beside the spans of the last traced
sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import LAYER_UNITS, QUALITY_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "deepmatch"
WORK = ROOT / ".bench_build" / "deepmatch-bench"

SETUP_PROBES = 10
MIN_SAMPLES = 2
# Every run ends within this many seconds, whatever its samples cost.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _spawn(run_dir: Path, tag: str, doc: dict, mode: str, checks, deadline: float,
           meta: bool = False) -> dict:
    """Run one worker process to completion and return its result record."""
    sample_dir = run_dir / tag
    sample_dir.mkdir(parents=True)
    spec = {
        "doc": doc,
        "mode": mode,
        "checks": list(checks),
        "meta": meta,
        "out": str(sample_dir / "out"),
        "result": str(sample_dir / "result.json"),
        "spans": str(sample_dir / "spans.json"),
    }
    spec_path = sample_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        result = {"errors": ["worker timed out"]}
    else:
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads((sample_dir / "result.json").read_text())
        except (OSError, ValueError):
            result = {"errors": [f"worker exited {proc.returncode} without a result"]}
        if proc.returncode != 0:
            result["errors"].append(f"worker exited {proc.returncode}")
    if "ready" in result:
        result["setup_s"] = result.pop("ready") - start
    result.update(tag=tag, seed=doc["seed"], mode=mode)
    return result


def _check_repeats(samples: list) -> None:
    """Fail every sample whose reports.json differs from the first of its seed."""
    first: dict = {}
    for s in samples:
        digest = s.get("reports_sha256")
        if digest is not None and first.setdefault(s["seed"], digest) != digest:
            s["errors"].append("reports.json differs from an earlier sample of the same config")


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark run; returns its record (result line, samples, machine)."""
    wl = workloads.WORKLOADS[workload]
    docs = workloads.configs(workload, seed, tiny)
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        warmup = _spawn(run_dir, "warmup", docs[0], "setup", (), deadline, meta=True)
        probes = [warmup] + [
            _spawn(run_dir, f"setup{i}", docs[0], "setup", (), deadline)
            for i in range(0 if trace else SETUP_PROBES)
        ]
        modes = ("run", "trace") if trace else ("run",)
        units: list = []
        longest = 0.0
        while True:
            doc = docs[len(units) % len(docs)]
            t0 = time.monotonic()
            units.append([
                _spawn(run_dir, f"s{len(units)}-{mode}", doc, mode, wl.checks, deadline)
                for mode in modes
            ])
            longest = max(longest, time.monotonic() - t0)
            enough = len(units) >= (1 if trace else MIN_SAMPLES)
            if enough and time.monotonic() - start + longest > seconds:
                break
        last = run_dir / f"s{len(units) - 1}-trace" / "spans.json"
        if last.exists():
            shutil.copyfile(last, WORK / f"{workload}.spans.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = [s for unit in units for s in unit]
    _check_repeats(samples)
    everything = probes + samples
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine_meta(warmup.get("meta", {})),
        "samples": everything,
        "result": {
            "correct": not any(s["errors"] for s in everything),
            "attempted": len(everything),
            "failed": sum(1 for s in everything if s["errors"]),
        },
    }
    good = [s for s in samples if not s["errors"]]
    if not good:
        return record
    quality = _quality(good)
    record["quality"] = quality
    if trace:
        values = _traced_metrics(units, good, quality)
        unit_of = {**LAYER_UNITS, **QUALITY_UNITS}
    else:
        values = {
            "wall_s": statistics.median(s["wall_s"] for s in good),
            "setup_s": statistics.median(
                s["setup_s"] for s in probes[1:] + good if "setup_s" in s
            ),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        }
        unit_of = END_TO_END_UNITS
    record["result"]["metrics"] = {
        name: {"value": value, "unit": unit_of[name]} for name, value in values.items()
    }
    return record


def _quality(good: list) -> dict:
    """Each quality value averaged over the distinct seeds the run sampled."""
    per_seed: dict = {}
    for s in good:
        per_seed.setdefault(s["seed"], s["quality"])
    names = sorted({name for q in per_seed.values() for name in q})
    return {
        name: statistics.fmean(q[name] for q in per_seed.values() if name in q)
        for name in names
    }


def _traced_metrics(units: list, good: list, quality: dict) -> dict:
    traced = [s for s in good if s["mode"] == "trace"]
    metrics = {
        name: statistics.median_low(s["layers"][name] for s in traced) if traced else 0.0
        for name in LAYER_UNITS
        if name != "trace.overhead_s"
    }
    pairs = [
        traced_s["wall_s"] - plain["wall_s"]
        for plain, traced_s in units
        if not plain["errors"] and not traced_s["errors"]
    ]
    metrics["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
    metrics.update({name: quality.get(name, 0.0) for name in QUALITY_UNITS})
    return metrics


def machine_meta(runtime: dict) -> dict:
    """The machine and build a result was measured on."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    sources = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        **runtime,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _print_record(record: dict) -> None:
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for s in record["samples"]:
        fields = " ".join(
            f"{key}={s[key]:.6g}" for key in ("setup_s", "wall_s", "peak_rss_mb") if key in s
        )
        status = "ok" if not s["errors"] else "FAILED: " + s["errors"][-1].strip().splitlines()[-1]
        print(f"sample {s['tag']} seed={s['seed']} {fields} {status}")
    if "quality" in record:
        print("quality " + json.dumps(record["quality"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "experiments.py").is_file():
        print(f"error: no deepmatch sources at {PACKAGE}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    _print_record(record)
    if "metrics" not in record["result"]:
        print("error: every sample failed", file=sys.stderr)
        return 1
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
