"""Run every benchmark workload and print its metrics in one table.

Usage, from the root of a source checkout:

    python3 perfbench/suite.py                 # end-to-end metrics
    python3 perfbench/suite.py --trace         # plus per-layer tables

Each workload runs in its own process through `perfbench/run.py`.  With
`--trace`, a second, traced run per workload prints the per-instance
table of top layers (the shape of the ROADMAP baseline table) and the
layer totals.  Exits nonzero when any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
E2E = ("verify_s", "setup_s", "peak_rss_mb", "verdict_ok")
LAYER_TOTALS = ("layer.realization_s", "layer.matroid_s", "layer.bounded_s",
                "layer.topology_s", "verify.self_s", "trace.overhead_s")


def _run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from workloads import WORKLOADS

    status = 0
    rows = []
    for w in WORKLOADS:
        code, res, err = _run(w, args.seed, args.seconds, 0)
        if code != 0 or res is None:
            status = 1
            print(f"{w}: run failed (exit {code})\n{err}", file=sys.stderr)
            continue
        m = res["metrics"]
        rows.append(f"| {w} | " + " | ".join(
            f"{m[k]['value']:.4g} {m[k]['unit']}" for k in E2E) + " |")
    print(f"seed {args.seed}, {args.seconds:g} s per run\n")
    print("| workload | " + " | ".join(E2E) + " |")
    print("| -------- |" + " ---: |" * len(E2E))
    print("\n".join(rows))

    if args.trace:
        for w in WORKLOADS:
            code, res, err = _run(w, args.seed, args.seconds, 1)
            if code != 0 or res is None:
                status = 1
                print(f"{w}: traced run failed (exit {code})\n{err}",
                      file=sys.stderr)
                continue
            m = res["metrics"]
            saved = HERE / "results" / f"{w}-seed{args.seed}-trace1.json"
            table = json.loads(saved.read_text())["table"]
            totals = ", ".join(
                f"{k} {m[k]['value']:.3f}" for k in LAYER_TOTALS if k in m)
            print(f"\n## {w} (traced, seconds per pass)\n\n{table}\n\n"
                  f"{totals}")
    return status


if __name__ == "__main__":
    sys.exit(main())
