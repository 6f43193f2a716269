#!/usr/bin/env python
"""Continuous benchmark-regression gate.

Compares freshly emitted ``BENCH_*.json`` payloads against the
committed baselines under ``benchmarks/baselines/`` and fails (exit
code 1) when any gated metric regresses beyond the tolerance band.

Metrics are addressed by dot-path into the payload (list indices are
integers, negatives allowed: ``rows.-1.batched_shots_per_sec`` is the
last row's throughput) and classified two ways:

``ratio``
    Machine-independent speedups (planned vs unplanned, swept vs
    recompiled).  Enforced at the base ``--tolerance`` everywhere —
    a 4x speedup should hold on any machine.
``absolute``
    Wall-clock timings and throughputs.  When the current payload's
    machine fingerprint (the ``meta.machine`` block stamped by
    ``benchmarks.harness.emit_json``) differs from the baseline's,
    the tolerance is widened by ``--machine-slack`` — unless
    ``--strict-machine`` insists on the base band.

Usage::

    python tools/bench_regress.py                      # gate, exit 0/1
    python tools/bench_regress.py --tolerance 0.25     # 25% band (default)
    python tools/bench_regress.py --update-history     # append history.jsonl
    python tools/bench_regress.py --json               # machine-readable

Exit codes: 0 all metrics within band, 1 at least one regression,
2 missing/invalid files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO / "benchmarks" / "baselines"
HISTORY = BASELINE_DIR / "history.jsonl"

#: Default relative tolerance band (25%).
DEFAULT_TOLERANCE = 0.25
#: Tolerance multiplier for ``absolute`` metrics measured on a
#: different machine than the baseline.
DEFAULT_MACHINE_SLACK = 4.0


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: where it lives and how to judge it.

    ``path`` is the dot-path into the payload; ``higher_is_better``
    orients the band; ``kind`` is ``"ratio"`` (machine-independent)
    or ``"absolute"`` (machine-dependent, slack-widened off-machine).
    """

    path: str
    higher_is_better: bool
    kind: str = "ratio"


#: The gated metrics per benchmark file (without the BENCH_ prefix).
SPECS = {
    "plan": [
        MetricSpec("speedup", higher_is_better=True, kind="ratio"),
        MetricSpec(
            "planned_seconds", higher_is_better=False, kind="absolute"
        ),
    ],
    "ir": [
        MetricSpec(
            "cached_speedup_vs_legacy", higher_is_better=True,
            kind="ratio",
        ),
        MetricSpec(
            "pipeline_cached_seconds", higher_is_better=False,
            kind="absolute",
        ),
    ],
    "batch": [
        MetricSpec(
            "rows.-1.batched_speedup", higher_is_better=True,
            kind="ratio",
        ),
        MetricSpec(
            "rows.-1.batched_shots_per_sec", higher_is_better=True,
            kind="absolute",
        ),
    ],
    "sweep": [
        MetricSpec(
            "speedup_swept_vs_recompiled", higher_is_better=True,
            kind="ratio",
        ),
        MetricSpec(
            "swept_points_per_s", higher_is_better=True,
            kind="absolute",
        ),
    ],
    "kernel": [
        MetricSpec(
            "speedup_kernel_vs_sparse", higher_is_better=True,
            kind="ratio",
        ),
        MetricSpec(
            "kernel_planned_seconds", higher_is_better=False,
            kind="absolute",
        ),
    ],
    "service": [
        # every request must succeed — a dropped request is a
        # functional regression, not a timing one
        MetricSpec("ok_fraction", higher_is_better=True, kind="ratio"),
        MetricSpec("rps", higher_is_better=True, kind="absolute"),
    ],
    "conformance": [
        # check-group count is a coverage floor, not a timing: the
        # sweep must keep cross-checking at least as many groups as
        # the baseline did on any machine
        MetricSpec(
            "nb_check_groups", higher_is_better=True, kind="ratio"
        ),
        MetricSpec(
            "circuits_per_second", higher_is_better=True,
            kind="absolute",
        ),
    ],
}


def extract(payload: dict, path: str):
    """Resolve a dot-path (``rows.-1.speedup``) into a payload.

    Integer segments index lists (negatives count from the end);
    everything else is a dict key.  Raises ``KeyError`` with the full
    path on a miss.
    """
    node = payload
    for seg in path.split("."):
        try:
            if isinstance(node, list):
                node = node[int(seg)]
            else:
                node = node[seg]
        except (KeyError, IndexError, ValueError, TypeError):
            raise KeyError(f"no value at {path!r} (failed at {seg!r})")
    return node


def same_machine(current: dict, baseline: dict) -> bool:
    """Whether two payloads carry identical machine fingerprints.

    Unstamped payloads (no ``meta.machine``) compare as *different*
    machines, so absolute metrics get the forgiving band.
    """
    cur = (current.get("meta") or {}).get("machine")
    base = (baseline.get("meta") or {}).get("machine")
    return cur is not None and cur == base


def check_metric(
    spec: MetricSpec,
    current: dict,
    baseline: dict,
    tolerance: float,
    machine_slack: float,
    strict_machine: bool,
) -> dict:
    """Judge one metric; returns a result row (``ok`` + context)."""
    cur = float(extract(current, spec.path))
    base = float(extract(baseline, spec.path))
    tol = tolerance
    off_machine = not same_machine(current, baseline)
    if spec.kind == "absolute" and off_machine and not strict_machine:
        tol = tolerance * machine_slack
    if base == 0.0:
        ok, ratio = True, float("nan")
    elif spec.higher_is_better:
        ratio = cur / base
        ok = ratio >= 1.0 - tol
    else:
        ratio = cur / base
        ok = ratio <= 1.0 + tol
    return {
        "path": spec.path,
        "kind": spec.kind,
        "higher_is_better": spec.higher_is_better,
        "current": cur,
        "baseline": base,
        "ratio": ratio,
        "tolerance": tol,
        "off_machine": off_machine,
        "ok": ok,
    }


def check_file(
    name: str,
    current_dir: Path,
    baseline_dir: Path,
    tolerance: float,
    machine_slack: float,
    strict_machine: bool,
) -> Optional[dict]:
    """Gate one benchmark file; ``None`` when either side is absent."""
    cur_path = current_dir / f"BENCH_{name}.json"
    base_path = baseline_dir / f"BENCH_{name}.json"
    if not cur_path.exists() or not base_path.exists():
        return None
    current = json.loads(cur_path.read_text())
    baseline = json.loads(base_path.read_text())
    rows = [
        check_metric(
            spec, current, baseline, tolerance, machine_slack,
            strict_machine,
        )
        for spec in SPECS[name]
    ]
    return {
        "benchmark": name,
        "ok": all(r["ok"] for r in rows),
        "metrics": rows,
    }


def render(results: List[dict]) -> str:
    """The human-readable verdict table."""
    lines = []
    for res in results:
        verdict = "ok  " if res["ok"] else "FAIL"
        lines.append(f"{verdict} BENCH_{res['benchmark']}.json")
        for m in res["metrics"]:
            arrow = "^" if m["higher_is_better"] else "v"
            flag = "" if m["ok"] else "  <-- REGRESSION"
            machine = " (off-machine band)" if (
                m["off_machine"] and m["kind"] == "absolute"
            ) else ""
            lines.append(
                f"     {m['path']} [{m['kind']}{arrow}] "
                f"{m['current']:.6g} vs baseline {m['baseline']:.6g} "
                f"(x{m['ratio']:.3f}, tol {m['tolerance']:.0%}"
                f"{machine}){flag}"
            )
    return "\n".join(lines)


def append_history(results: List[dict], history: Path) -> None:
    """Append one JSONL row per run to the history file."""
    history.parent.mkdir(parents=True, exist_ok=True)
    row = {
        "checked_at": datetime.now(timezone.utc).isoformat(),
        "ok": all(r["ok"] for r in results),
        "benchmarks": {
            r["benchmark"]: {
                m["path"]: m["current"] for m in r["metrics"]
            }
            for r in results
        },
    }
    with history.open("a") as fh:
        fh.write(json.dumps(row) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="bench_regress",
        description=(
            "Compare fresh BENCH_*.json files against committed "
            "baselines; exit 1 on regression."
        ),
    )
    parser.add_argument(
        "--current-dir", type=Path, default=REPO,
        help="directory holding the fresh BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=BASELINE_DIR,
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative tolerance band (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--machine-slack", type=float, default=DEFAULT_MACHINE_SLACK,
        help="tolerance multiplier for absolute metrics measured on "
             "a different machine than the baseline",
    )
    parser.add_argument(
        "--strict-machine", action="store_true",
        help="never widen the band for cross-machine comparisons",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=sorted(SPECS),
        help="benchmark names to gate (default: all known)",
    )
    parser.add_argument(
        "--update-history", action="store_true",
        help="append this run's metrics to benchmarks/baselines/"
             "history.jsonl",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    unknown = [b for b in args.benchmarks if b not in SPECS]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}")
        return 2

    results = []
    missing = []
    for name in args.benchmarks:
        res = check_file(
            name, args.current_dir, args.baseline_dir,
            args.tolerance, args.machine_slack, args.strict_machine,
        )
        if res is None:
            missing.append(name)
        else:
            results.append(res)
    if not results:
        print(
            "no benchmark pairs found (missing: "
            + ", ".join(missing) + ")"
        )
        return 2

    if args.update_history:
        append_history(results, HISTORY)

    ok = all(r["ok"] for r in results)
    if args.json:
        print(json.dumps({"ok": ok, "results": results}, indent=2))
    else:
        print(render(results))
        if missing:
            print("skipped (no pair): " + ", ".join(missing))
        print("verdict:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
