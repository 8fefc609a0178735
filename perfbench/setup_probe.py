"""Set-up probe: one cold start of a workload, in this fresh process.

Times importing the package plus one cold build of each distinct machine
the workload simulates (program generation, supply lowering, processor
construction) and prints one JSON line.  ``run.py`` starts it several
times per run and reports the median as ``setup_s``; with ``--trace`` it
also reports the set-up's parts.

    python3 perfbench/setup_probe.py --workload paper-suite --seed 1 [--trace]
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("setup_probe: no simulator sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro  # noqa: F401

    import_s = time.perf_counter() - START
    from workloads import WORKLOADS, build_machines

    machines = WORKLOADS[args.workload].machines(args.seed)
    report = {"machines": len(machines), "import_s": import_s}
    if args.trace:
        from spans import Tracer, install, self_times

        tracer = Tracer()
        with install(tracer):
            build_machines(machines)
        report["setup_s"] = time.perf_counter() - START
        own = self_times(tracer.spans)
        builds = [s for s in tracer.spans if s["name"] == "program.build"]
        report["program_build_s"] = sum(s["end"] - s["start"] for s in builds)
        report["program_builds"] = len(builds)
        report["pipeline_build_s"] = (
            own.get("pipeline.build", 0.0) + own.get("smt.build", 0.0)
        )
    else:
        build_machines(machines)
        report["setup_s"] = time.perf_counter() - START
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
