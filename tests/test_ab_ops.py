"""The in-process A/B of `tools/ab_ops.py`, run on one tree against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_ops.py"
LINE = re.compile(
    r"(?P<name>[a-z-]+(?: make_input)?): parent \d+\.\d{6} s, change \d+\.\d{6} s, "
    r"ratio \d+\.\d{3}, change won (?P<won>\d+)/2"
)
NAMES = ["deep-hardy", "factor-sampling", "sparse-deep", "verify-suite"]


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def run_against_itself(*args):
    """The tool's lines for this tree against itself at 2 pairs, matched."""
    src = str(ROOT / "src")
    done = run(src, src, "--pairs", "2", *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert all(0 <= int(match["won"]) <= 2 for match in matches)
    return [match["name"] for match in matches]


def test_one_tree_against_itself():
    assert run_against_itself() == NAMES


def test_setup_one_tree_against_itself():
    assert run_against_itself("--setup") == [f"{name} make_input" for name in NAMES]


def test_unknown_workload_is_a_usage_error():
    src = str(ROOT / "src")
    done = run(src, src, "no-such-workload")
    assert done.returncode == 2
    assert "unknown workloads: no-such-workload" in done.stderr
