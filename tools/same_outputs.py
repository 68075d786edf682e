"""Do two source trees write the same CLI outputs, byte for byte?

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE [--seeds 1001-1005] [--tiny]

Every run is a fresh Python process of one tree, with that tree's `src/`
on PYTHONPATH, OpenBLAS at one thread and no bytecode written. At each seed
the runs are `python -m deepmatch.cli` with the first config of every
workload in `bench/workloads.py` (at its `tiny` sizes with --tiny), a
default `propensity` run, a default `gradcheck` run and a default
`swissroll` run in twin mode, with all four methods (at sr-default's tiny
sizes with --tiny). Without --tiny each script in `demos/` also runs once;
the demos have no tiny size. Each run works in a directory of its own, and a
CLI run writes to `out` there, so stdout names the same path on both sides.
Every output file, stdout, stderr and the exit status are compared; each one
that differs is printed, and the exit status is 1 if any differs. Before its
last line the tool prints each tree's line count of `src/deepmatch/*.py`,
the total of `wc -l`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode in the benchmark's directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


DEMOS = ("twin_recovery", "propensity_workflow", "gradient_audit", "embedding_comparison")


def runs(seeds: list[int], tiny: bool) -> list[tuple[str, list[str], dict | None]]:
    """(name, CLI arguments or a demo's path in the tree, config document or None)
    of every run."""
    out = []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            doc = workloads.configs(name, seed, tiny)[0]
            out.append((f"{name}@{seed}", [doc["experiment"], "--config", "config.json"], doc))
        for experiment in ("propensity", "gradcheck"):
            out.append((f"{experiment}@{seed}", [experiment, "--seed", str(seed)], None))
        # no workload's twin run fits LLE or the autoencoder
        twin = {"version": workloads.CONFIG_VERSION, "experiment": "swissroll", "seed": seed,
                "twin_mode": True, **(workloads.WORKLOADS["sr-default"].tiny if tiny else {})}
        out.append((f"swissroll-twin@{seed}", ["swissroll", "--config", "config.json"], twin))
    if not tiny:
        out += [(f"demo {demo}", [f"demos/{demo}.py"], None) for demo in DEMOS]
    return out


def run(tree: Path, args: list[str], doc: dict | None, work: Path) -> dict[str, bytes]:
    """Run the CLI of `tree`, or one of its demos, in `work`; returns every output, by name."""
    work.mkdir(parents=True)
    if doc is not None:
        (work / "config.json").write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    if args[0].startswith("demos/"):
        command = [str(tree.resolve() / args[0])]
    else:
        command = ["-m", "deepmatch.cli", *args, "--out", "out"]
    done = subprocess.run([sys.executable, *command], cwd=work, env=env, capture_output=True)
    return {"exit status": str(done.returncode).encode(), "stdout": done.stdout,
            "stderr": done.stderr,
            **{f"out/{name}": data for name, data in files(work / "out").items()}}


def files(directory: Path) -> dict[str, bytes]:
    """The bytes of every file under `directory`, by relative path."""
    if not directory.is_dir():
        return {}
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def differences(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The names whose bytes differ, or that only one side has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def source_lines(tree: Path) -> int:
    """The line count of the tree's `src/deepmatch/*.py`, as `wc -l` totals it."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "deepmatch").glob("*.py"))


def seed_list(text: str) -> list[int]:
    """"1001-1005" or "7" or "1,4-5" as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1001-1005"))
    parser.add_argument("--tiny", action="store_true", help="the workloads' tiny sizes")
    args = parser.parse_args(argv)
    differing = 0
    todo = runs(args.seeds, args.tiny)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for i, (name, cli_args, doc) in enumerate(todo):
            sides = [run(tree, cli_args, doc, Path(tmp) / side / str(i))
                     for side, tree in (("parent", args.parent), ("change", args.change))]
            for output in differences(*sides):
                print(f"{name}: {output} differs")
            differing += bool(differences(*sides))
    for side, tree in (("parent", args.parent), ("change", args.change)):
        print(f"{side}: {source_lines(tree)} lines in src/deepmatch/*.py")
    print(f"{len(todo)} runs, {differing} with a difference")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
