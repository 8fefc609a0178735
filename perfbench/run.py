"""The simulator's benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

Run it from the root of a repository checkout: it imports the simulator
from ``src/`` and fails (exit 2, no result line) when that is missing.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` list of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` list, from a separate traced
pass whose spans are written under ``.perfbench/``.  Workloads, metrics
and the reasons for both are described in ``perfbench/NOTES.md``.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper-suite", "seed-sweep", "smt-mixes")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark one simulator workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure repetitions until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's result digests in perfbench/expected.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
