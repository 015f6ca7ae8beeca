"""Checks of the benchmark itself, kept out of the package's test suite.

    python3 bench/selfcheck.py

1. For every workload, a run whose first timed op has its weights doubled
   (`--inject-mutant scale-omega`) must finish, exit 0, go on to at least one
   more op, report that op and only that op as failed, and report
   correct = false.
2. A clean run reports correct = true and no failures.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   must exit non-zero without printing a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import OUT, ROOT, WORKLOADS

# Long enough for two deep-hardy ops on a slow host.
RUN = [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "20"]


def bench(args: list[str], cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for name in WORKLOADS:
        code, out = bench(["--workload", name, "--inject-mutant", "scale-omega"])
        line = result(out) if code == 0 else {}
        if (code != 0 or line.get("failed") != 1 or line.get("attempted", 0) < 2
                or line.get("correct") is not False):
            problems.append(f"{name}: mutant run gave exit {code}, {line or out[-300:]}")
        else:
            print(f"ok   {name}: the corrupted op failed, {line['attempted']} ops ran")

    code, out = bench(["--workload", "factor-sampling"])
    line = result(out) if code == 0 else {}
    if code != 0 or line.get("failed") != 0 or line.get("correct") is not True:
        problems.append(f"clean run gave exit {code}, {line or out[-300:]}")
    else:
        print("ok   clean factor-sampling run is correct")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench(["--workload", "verify-suite"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or out.strip():
        problems.append(f"bare directory: exit {code}, stdout {out[-300:]!r}")
    else:
        print(f"ok   bare directory: exit {code}, nothing on stdout")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
