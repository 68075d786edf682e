"""`tools/same_outputs.py`, which compares the CLI outputs of two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_writes_the_same_outputs_as_itself():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--tiny",
                           "--seeds", "3"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "7 runs, 0 with a difference"


def test_every_differing_or_one_sided_output_is_named(tmp_path):
    tool = _tool()
    for side, text in (("a", "1"), ("b", "2")):
        (tmp_path / side / "sub").mkdir(parents=True)
        (tmp_path / side / "same.csv").write_text("x")
        (tmp_path / side / "sub" / "report.json").write_text(text)
    (tmp_path / "b" / "extra.csv").write_text("")
    a, b = tool.files(tmp_path / "a"), tool.files(tmp_path / "b")
    assert tool.differences(a, b) == ["extra.csv", str(Path("sub", "report.json"))]
    assert tool.differences(a, a) == []


def test_seed_ranges():
    assert _tool().seed_list("1001-1003,7") == [1001, 1002, 1003, 7]


def test_every_demo_runs_once_without_tiny():
    tool = _tool()
    full, tiny = tool.runs([1, 2], tiny=False), tool.runs([1, 2], tiny=True)
    assert [name for name, _, _ in full[:len(tiny)]] == [name for name, _, _ in tiny]
    demos = sorted(args for _, args, _ in full[len(tiny):])
    assert demos == [[f"demos/{p.name}"] for p in sorted((ROOT / "demos").glob("*.py"))]
