"""Record the reference outputs that later runs are compared with.

Usage (from the repository root)::

    python3 perfbench/record_refs.py --seeds 0-31

Runs every workload's commands once per seed, refuses to record an
output that fails the oracle checks, and writes the compared summaries
to ``perfbench/refs.json``.  Re-record only when a change to the program
is meant to change its results, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import checks

    refs = checks.load_refs()
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
                commands = run.WORKLOADS[workload](seed, Path(tmp))
                runner = run.Runner(commands, {})
                runner.run_pass()
            if runner.failed:
                print(f"{workload} seed {seed}: not recorded, {runner.problems}", file=sys.stderr)
                return 1
            recorded = {}
            for cmd in commands:
                summary = dict(cmd.verified)
                summary.pop("near_threshold", None)
                recorded[cmd.metric] = summary
            refs.setdefault(workload, {})[str(seed)] = recorded
            print(f"{workload} seed {seed}: recorded", flush=True)
    refs = {w: dict(sorted(v.items(), key=lambda kv: int(kv[0]))) for w, v in sorted(refs.items())}
    checks.REFS_PATH.write_text(json.dumps(refs, indent=None, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
