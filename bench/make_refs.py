"""Write bench/refs.json: the reference outputs the correctness gate compares
against, one entry per workload and input seed.

    python3 bench/make_refs.py --seeds 0-63

Run it only at a commit whose outputs are trusted; every entry must pass its
own verifiers or the script stops without writing.
"""

from __future__ import annotations

import argparse
import json
import sys

from worker import BENCH, import_package


def parse_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_range, default=parse_range("0-63"))
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    hm, _ = import_package()
    import workloads

    path = BENCH / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name](hm)
        entries = refs.setdefault(name, {})
        for seed in args.seeds:
            out = workload.op(*workload.prepare(workload.make_input(seed)))
            ok, exact, floats, _ = workload.summarize(out)
            if not ok:
                print(f"{name} seed {seed}: a verifier failed", file=sys.stderr)
                return 1
            entries[str(seed)] = {"exact": exact, "floats": floats}
        refs[name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        print(f"{name}: {len(args.seeds)} seeds", file=sys.stderr)
    path.write_text(format_refs(refs))
    return 0


def format_refs(refs: dict) -> str:
    """JSON with one line per (workload, seed) entry."""
    blocks = []
    for name, entries in refs.items():
        lines = [f"  {json.dumps(seed)}: {json.dumps(entry)}" for seed, entry in entries.items()]
        blocks.append(f"{json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
