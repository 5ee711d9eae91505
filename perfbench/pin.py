"""Regenerate ``pins.json``: the expected output digests per program seed.

Run from the checkout root, on a commit whose digests are known good::

    python3 perfbench/pin.py --seeds 16

For each simulator workload this runs benchmark seeds ``0..N-1`` once
each, in a fresh interpreter, and records every output digest under its
program seed. The lint workload is not pinned: its findings legitimately
change with the lint code; ``run.py`` checks them for determinism and
for blocking findings instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HERE, child, smoke_disagreements, spec


def main(argv=None) -> int:  # noqa: ANN001
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    pins = {}
    for workload, info in spec.WORKLOADS.items():
        if info.kind == "lint":
            continue
        pins[workload] = {}
        for seed in sorted({spec.program_seed(workload, k) for k in range(args.seeds)}):
            rep = child(workload, seed, time.perf_counter() + 600)
            if not rep.get("ok"):
                print(f"{workload} seed {seed} failed", file=sys.stderr)
                return 1
            pins[workload][str(seed)] = rep["outputs"]
            print(workload, seed, rep["work"], flush=True)
        problems = smoke_disagreements(workload, pins[workload])
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
