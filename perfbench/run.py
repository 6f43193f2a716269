"""The repository's benchmark: one command, named seeded workloads.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (it simulates with the sources under
``src/``).  Workloads, metrics, units and bounds are listed in
``BENCHMARK.json``.  With ``--trace 0`` the run is untimed by any
wrapper and prints the end-to-end metrics; with ``--trace 1`` it runs
the workload untraced for half the time and traced for the other half
and prints the per-layer metrics.  Every output is checked; the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

Diagnostics go to standard error.  Scratch files (server logs, span
dumps) go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("serve-mix", "sv-ladder", "batched")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import the program and build the workload's inputs, then "
             "exit (timed by the parent run as set-up)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(
            f"no program sources at {root / 'src'}; run from the root "
            "of a checkout"
        )
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail("no BENCHMARK.json in the working directory")
    sys.path.insert(0, str(root / "src"))
    spec = json.loads(spec_path.read_text())

    if args.setup_only:
        return _setup_only(args.workload, args.seed)

    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    module = _module(args.workload)
    metrics, attempted, failed, notes = module.run(
        root, workdir, args.seed, args.seconds, bool(args.trace)
    )
    for line in notes:
        print(line, file=sys.stderr)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in listed:
        name = entry["name"]
        if name in metrics:
            value = float(metrics[name])
        elif args.trace:
            # a layer this workload never enters did no work
            value = 0.0
        else:
            return _fail(f"workload produced no {name!r}")
        out[name] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    }))
    return 0


def _module(workload):
    if workload == "serve-mix":
        import serve_mix
        return serve_mix
    if workload == "sv-ladder":
        import ladder
        return ladder
    import batched
    return batched


def _setup_only(workload, seed) -> int:
    if workload == "serve-mix":
        return _fail("serve-mix measures set-up by starting the service")
    _module(workload).setup(seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
