"""The in-process A/B of `tools/ab_stopping.py`, run on one tree against
itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_stopping.py"
LINE = re.compile(
    r"(?P<name>[a-zL0-9 -]+): parent \d+\.\d{3} ms, change \d+\.\d{3} ms, "
    r"ratio \d+\.\d{3}, change won (?P<won>\d+)/2"
)
NAMES = [
    "sparse-deep 0",
    "sparse-deep 1",
    "sparse-deep 2",
    "sparse-deep 3",
    "sparse L40",
    "clustered L40",
    "chain L61",
    "deep-hardy 0",
]


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300
    )


def test_one_tree_against_itself():
    src = str(ROOT / "src")
    done = run(src, src, "--pairs", "2")
    assert done.returncode == 0, done.stderr
    matches = [LINE.fullmatch(line) for line in done.stdout.splitlines()]
    assert all(matches), done.stdout
    assert [match["name"] for match in matches] == NAMES
    assert all(0 <= int(match["won"]) <= 2 for match in matches)


def test_pairs_must_be_positive():
    src = str(ROOT / "src")
    done = run(src, src, "--pairs", "0")
    assert done.returncode == 2
    assert "--pairs must be positive, got 0" in done.stderr
