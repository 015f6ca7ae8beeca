"""The in-process A/B of `tools/ab_ops.py`, run on one tree against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_ops.py"
LINE = re.compile(
    r"(?P<name>[a-z-]+): parent \d+\.\d{6} s, change \d+\.\d{6} s, "
    r"ratio \d+\.\d{3}, change won (?P<won>\d+)/2"
)


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_one_tree_against_itself():
    src = str(ROOT / "src")
    done = run(src, src, "--pairs", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    names = [match["name"] for match in matches]
    assert names == ["deep-hardy", "factor-sampling", "sparse-deep", "verify-suite"]
    assert all(0 <= int(match["won"]) <= 2 for match in matches)


def test_unknown_workload_is_a_usage_error():
    src = str(ROOT / "src")
    done = run(src, src, "no-such-workload")
    assert done.returncode == 2
    assert "unknown workloads: no-such-workload" in done.stderr
