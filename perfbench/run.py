"""omtop benchmark: time to verdict on seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

One workload runs in this single process.  Set-up builds the inputs
from the seed several times and reports the median.  The measured phase
then repeats passes over all instances (a pass verifies each instance
once through `verify_arrangement` or `verify_covectors`) until
`--seconds` have passed, and reports the median pass.  Every verdict is
checked against the verdict its construction forces.

With `--trace 0` the last stdout line carries the end-to-end metrics
(`verify_s`, `setup_s`, `peak_rss_mb`, `verdict_ok`).  With `--trace 1`
untraced and traced passes alternate; the traced ones record a span per
call from `omtop.verify` into a layer, and the last line carries the
per-layer metrics.  The traced run also checks that tracing leaves the
reports byte-identical, and writes the spans, the environment and a
per-instance table of the top layers under `perfbench/results/`.

Exit codes: 0 when every check passed, 1 when a verdict or check
failed, 2 when the checkout has no `src/omtop` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
MIN_PASSES = 3  # per kind of pass (untraced, traced)


def _load_omtop():
    """Import omtop from this checkout's `src/`, nowhere else."""
    if not (SRC / "omtop" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import omtop

    if Path(omtop.__file__).resolve().parent != (SRC / "omtop").resolve():
        return None
    return omtop


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without
    starting git; "unknown" otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(omtop, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "omtop_version": omtop.__version__,
        "git_commit": _git_commit(),
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Runner:
    """Set-up, passes and checks for one workload in one process."""

    def __init__(self, omtop, workloads, name: str, seed: int):
        import omtop.verify

        self.verify_module = omtop.verify
        self.wl = workloads
        self.name = name
        self.seed = seed
        self.api = types.SimpleNamespace(
            generate_arrangement=omtop.generate_arrangement,
            parse_covector_file=omtop.parse_covector_file,
            enumerate_covectors=omtop.enumerate_covectors,
            homogenize=omtop.homogenize,
            format_covector_file=omtop.format_covector_file,
        )
        self.instances = []
        self.setup_times: list[float] = []
        self.setup_spans: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.reports: dict[str, dict] = {}
        self.installed: list[str] = []

    def setup(self, traced: bool) -> None:
        first = None
        for _ in range(SETUP_REPS):
            api = self.api
            rec = None
            if traced:
                rec = spans.Recorder()
                api = types.SimpleNamespace(**vars(self.api))
                api.generate_arrangement = rec.wrap(
                    "generate.generate_arrangement", api.generate_arrangement)
                api.parse_covector_file = rec.wrap(
                    "matroid.parse_covector_file", api.parse_covector_file)
            t0 = time.perf_counter()
            if rec is None:
                insts = self.wl.build(self.name, api, self.seed)
            else:
                insts = rec.call("setup", "", self.wl.build,
                                 self.name, api, self.seed)
            self.setup_times.append(time.perf_counter() - t0)
            if rec is not None:
                self.setup_spans.append(rec.spans)
            prints = [(i.id, i.fingerprint()) for i in insts]
            if first is None:
                first = prints
            elif prints != first:
                self.problems.append("set-up is not deterministic in the seed")
        self.instances = insts

    def run_pass(self, rec=None) -> float:
        """Verify every instance once and return the pass seconds.
        Inputs are prepared before the clock starts."""
        inputs = [inst.fresh_input() for inst in self.instances]
        results = []
        t0 = time.perf_counter()
        for inst, inp in zip(self.instances, inputs):
            try:
                if rec is None:
                    rep = self.wl.run_verify(self.verify_module, inst, inp)
                else:
                    rep = rec.call("verify", inst.id, self.wl.run_verify,
                                   self.verify_module, inst, inp)
            except Exception:  # an exception is a failed instance
                rep = traceback.format_exc()
            results.append(rep)
        total = time.perf_counter() - t0
        for inst, rep in zip(self.instances, results):
            self._check(inst, rep)
        return total

    def _check(self, inst, rep) -> None:
        self.attempted += 1
        if isinstance(rep, str):
            self.failed += 1
            self.problems.append(f"{inst.id}: exception\n{rep}")
            return
        out = rep.to_json()
        problems = self.wl.check(inst, out)
        digest = hashlib.sha256(
            json.dumps(out, sort_keys=True).encode()).hexdigest()
        if self.digests.setdefault(inst.id, digest) != digest:
            problems.append("report differs from the first pass")
        self.reports.setdefault(inst.id, out)
        if problems:
            self.failed += 1
            self.problems.extend(f"{inst.id}: {p}" for p in problems)

    def measure(self, seconds: float, traced: bool):
        """Repeat passes for `seconds` (at least MIN_PASSES of each kind).
        Traced runs alternate untraced and traced passes."""
        plain: list[float] = []
        traced_passes: list[tuple[float, list]] = []
        start = time.perf_counter()
        while True:
            plain.append(self.run_pass())
            if traced:
                rec = spans.Recorder()
                self.installed = rec.install(self.verify_module)
                try:
                    total = self.run_pass(rec)
                finally:
                    rec.uninstall()
                traced_passes.append((total, rec.spans))
            done = time.perf_counter() - start >= seconds
            if done and len(plain) >= MIN_PASSES:
                break
        return plain, traced_passes


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# span-timed metrics: <layer>.<function>_s is self time summed over the
# pass; the function names are those `omtop.verify` calls
TIMED = (
    "realization.enumerate_covectors",
    "realization.bounded_face_census",
    "realization.face_bounded",
    "matroid.verify_covector_axioms",
    "matroid.is_uniform",
    "bounded.bounded_complex",
    "bounded.restrict_to_support",
    "bounded.boundary_equivalence",
    "bounded.cube_isomorphism",
    "bounded.check_bijection",
    "bounded.link_decomposition",
    "bounded.induced_shelling_of_CX",
    "topology.order_complex",
    "topology.homology",
    "topology.find_collapse",
    "topology.verify_collapse",
    "topology.classify_links",
)
SETUP_TIMED = ("generate.generate_arrangement", "matroid.parse_covector_file")


def _report_counts(reports) -> dict:
    """Work counts read from the reports of one pass."""
    c = dict.fromkeys(
        ("realization.covectors", "matroid.axiom_witnesses", "bounded.cells",
         "bounded.star_x", "topology.simplices", "topology.collapse_nodes",
         "topology.links", "topology.links_certified"), 0)
    removed = 0
    for rep in reports:
        st = rep["stages"]
        c["realization.covectors"] += rep["instance"]["covectors"]
        ax = st["axioms"]
        c["matroid.axiom_witnesses"] += (
            len(ax["l1_witnesses"]) + len(ax["l2_witnesses"])
            + len(ax["l3_witnesses"]))
        if "bounded" in st:
            c["bounded.cells"] += st["bounded"]["size"]
        c["bounded.star_x"] += len(st.get("star_checks", {}).get("per_x", ()))
        if "order_complex" in st:
            c["topology.simplices"] += sum(st["order_complex"]["f_vector"])
        if "collapse" in st:
            c["topology.collapse_nodes"] += st["collapse"]["nodes"]
            cert = st["collapse"]["certificate"]
            removed += len(cert["steps"]) if cert else 0
        if "links" in st:
            verts = st["links"]["vertices"]
            c["topology.links"] += len(verts)
            c["topology.links_certified"] += sum(
                v["certainty"] == "certified" for v in verts)
    nodes = c["topology.collapse_nodes"]
    c["topology.collapse_useful_ratio"] = removed / nodes if nodes else 0.0
    return c


def _span_sums(recorded) -> tuple[dict, dict]:
    """Self time summed by span name, and call counts by name."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(recorded, spans.self_times(recorded)):
        total[s.name] = total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
    return total, calls


def layer_metrics(runner: Runner, plain, traced_passes) -> tuple[dict, list]:
    per_pass = []
    for total, recorded in traced_passes:
        sums, calls = _span_sums(recorded)
        m = {f"{name}_s": sums.get(name, 0.0) for name in TIMED}
        m["realization.face_bounded_calls"] = calls.get(
            "realization.face_bounded", 0)
        m["verify.self_s"] = sums.get("verify", 0.0)
        for layer in spans.LAYERS:
            m[f"layer.{layer}_s"] = sum(
                t for name, t in sums.items() if name.startswith(layer + "."))
        m["verify.traced_s"] = total
        per_pass.append(m)
    metrics = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    setup = [_span_sums(s)[0] for s in runner.setup_spans]
    for name in SETUP_TIMED:
        metrics[f"{name}_s"] = _median([s.get(name, 0.0) for s in setup])
    metrics.update(_report_counts(
        [runner.reports[i.id] for i in runner.instances]))
    metrics["trace.overhead_s"] = metrics["verify.traced_s"] - _median(plain)
    absent = [name for name in TIMED if name not in runner.installed]
    return metrics, absent


def instance_table(runner: Runner, traced_passes, top: int = 4) -> str:
    """Per-instance, per-layer table in the shape of the ROADMAP
    baseline: total verify time and the largest layers by self time,
    each the median over traced passes."""
    by_inst: dict[str, list[dict]] = {}
    for _, recorded in traced_passes:
        per: dict[str, dict[str, float]] = {}
        for s, t in zip(recorded, spans.self_times(recorded)):
            d = per.setdefault(s.instance, {})
            d[s.name] = d.get(s.name, 0.0) + t
            if s.parent < 0:
                d["<total>"] = s.duration
        for iid, d in per.items():
            by_inst.setdefault(iid, []).append(d)
    lines = ["| instance | total | top layers |",
             "| -------- | ----: | ---------- |"]
    for inst in runner.instances:
        runs = by_inst.get(inst.id, [])
        names = {k for d in runs for k in d}
        med = {k: _median([d.get(k, 0.0) for d in runs]) for k in names}
        total = med.pop("<total>", 0.0)
        tops = sorted(med.items(), key=lambda kv: -kv[1])[:top]
        desc = ", ".join(
            f"{k.partition('.')[2] or k} {v:.3f}" for k, v in tops)
        lines.append(f"| {inst.id} | {total:.3f} s | {desc} |")
    return "\n".join(lines)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    omtop = _load_omtop()
    if omtop is None:
        print(f"error: no omtop package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(omtop, args)
    print(json.dumps({"environment": env}))

    runner = Runner(omtop, workloads, args.workload, args.seed)
    traced = bool(args.trace)
    runner.setup(traced)
    plain, traced_passes = runner.measure(args.seconds, traced)

    out: dict = {"environment": env,
                 "instances": [i.id for i in runner.instances],
                 "setup_s": runner.setup_times, "verify_pass_s": plain}
    if traced:
        metrics, absent = layer_metrics(runner, plain, traced_passes)
        table = instance_table(runner, traced_passes)
        print(table, file=sys.stderr)
        if absent:
            print("absent spans: " + ", ".join(absent), file=sys.stderr)
        out.update(table=table, absent_spans=absent,
                   installed_spans=runner.installed,
                   spans=[[s.to_json() for s in sp]
                          for _, sp in traced_passes])
        values = {k: {"value": v, "unit": _unit(k)}
                  for k, v in metrics.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok = (runner.attempted - runner.failed) / runner.attempted
        values = {
            "verify_s": {"value": _median(plain), "unit": "s"},
            "setup_s": {"value": _median(runner.setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "verdict_ok": {"value": ok, "unit": "fraction"},
        }
    print(f"{args.workload} seed {args.seed}: {len(plain)} passes, "
          f"pass s min {min(plain):.4f} median {_median(plain):.4f} "
          f"max {max(plain):.4f}; set-up s {runner.setup_times}",
          file=sys.stderr)
    for p in runner.problems:
        print("FAIL " + p, file=sys.stderr)

    out["metrics"] = values
    out["problems"] = runner.problems
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(out, indent=1) + "\n")

    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
