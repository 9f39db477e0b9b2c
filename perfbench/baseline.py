"""Regenerate the ROADMAP baseline table: one traced verify per instance.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py                # the ROADMAP grid
    python3 perfbench/baseline.py 6,4,0 6,5,0    # any n,d,s instances

Instance `n,d,s` is `generate_arrangement(n, d, seed=s)`, verified once
through `verify_arrangement` with every call from `omtop.verify` into a
layer traced, as in `run.py --trace 1`.  Prints the per-instance table
of the top layers by self time and each layer's share of the verify
time; exits 1 when a verdict or certificate check fails.  The default
grid takes about two minutes on a 2-core machine, most of it the
`(7,4,0)` verify.
"""

from __future__ import annotations

import argparse
import sys

import run
import spans

GRID = ("11,2,0", "8,3,0", "6,4,0", "7,4,0")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("instances", nargs="*", default=GRID, metavar="n,d,s")
    args = ap.parse_args(argv)

    omtop = run._load_omtop()
    if omtop is None:
        print(f"error: no omtop package under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    runner = run.Runner(omtop, workloads, "baseline", 0)
    runner.instances = [
        workloads._uniform(runner.api, *map(int, spec.split(",")))
        for spec in args.instances
    ]
    rec = spans.Recorder()
    rec.install(runner.verify_module)
    try:
        total = runner.run_pass(rec)
    finally:
        rec.uninstall()

    print(run.instance_table(runner, [(total, rec.spans)]))
    sums, _ = run._span_sums(rec.spans)
    shares = {layer: sum(t for name, t in sums.items()
                         if name.startswith(layer + "."))
              for layer in spans.LAYERS}
    shares["verify (self)"] = sums.get("verify", 0.0)
    print(f"\nverify {total:.3f} s: " + ", ".join(
        f"{k} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in shares.items()))
    for p in runner.problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main())
