"""Command-line interface.

Subcommands mirror the library layers: `axioms` checks the covector
axioms, `realize` turns an arrangement into its covector set, `bounded`
extracts the bounded complex, `verify` runs the full pipeline and emits
a verdict, `svg` draws a plane arrangement, and `generate` writes a
seeded random uniform arrangement.

Exit codes: 0 for success (for `verify`: ball-certified, or
evidence-only under --allow-evidence), 1 for a failed check or
refutation, 2 for an input error, 3 for an exhausted resource budget.
JSON output is byte-identical across runs on the same input; `verify`
embeds a timestamp unless --no-timestamp is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from .bounded import AffineOM, bounded_complex
from .errors import (
    InputFormatError,
    OmtopError,
    ResourceExhausted,
)
from .generate import generate_arrangement
from .matroid import (
    CovectorSet,
    format_covector_file,
    parse_covector_file,
    verify_covector_axioms,
)
from .realization import (
    Arrangement,
    enumerate_covectors,
    format_arrangement,
    homogenize,
    parse_arrangement_file,
)
from .signvec import GroundSet
from .svgfig import render_arrangement_svg
from .verify import verify_arrangement, verify_covectors

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _load(path: str, g: str | None):
    """Parse an input file as an arrangement (`dim` header) or a
    covector file, applying --g to covector inputs; an arrangement
    brings its own g, and --g on one is refused."""
    text = _read(path)
    first = next(
        (
            line.split("#", 1)[0].strip()
            for line in text.splitlines()
            if line.split("#", 1)[0].strip()
        ),
        "",
    )
    if first.startswith("dim"):
        if g is not None:
            raise InputFormatError(
                f"--g applies to covector files; {path} is an arrangement, "
                "whose g is the hyperplane at infinity"
            )
        return parse_arrangement_file(text, source=path), None
    L = parse_covector_file(text, source=path)
    if g is not None:
        if g not in L.ground.labels:
            raise InputFormatError(
                f"--g {g!r} is not an element label of {path}"
            )
        L = CovectorSet(GroundSet(L.ground.labels, g=g), L.covectors)
    return None, L


def _covectors_of(A: Arrangement | None, L: CovectorSet | None) -> CovectorSet:
    if A is not None:
        return enumerate_covectors(homogenize(A))
    return L


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path: str, payload: dict) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def cmd_axioms(args) -> int:
    A, L = _load(args.input, args.g)
    L = _covectors_of(A, L)
    rep = verify_covector_axioms(L)
    labels = L.ground.labels
    # the first witness of each axiom in sign-vector notation
    witnesses = {
        "l0": [],
        "l1": [str(x) for x in rep.l1_witnesses[:1]],
        "l2": [f"{x} o {y}" for x, y in rep.l2_witnesses[:1]],
        "l3": [f"{x}, {y}, e={labels[e]}" for x, y, e in rep.l3_witnesses[:1]],
    }
    for key in ("l0", "l1", "l2", "l3"):
        ok = getattr(rep, f"{key}_ok")
        line = f"{key.upper()}: {'ok' if ok else 'FAIL'}"
        if not ok and witnesses[key]:
            count = len(getattr(rep, f"{key}_witnesses"))
            line += f"  witness: {witnesses[key][0]} (1 of {count})"
        print(line)
    print(f"axioms: {'ok' if rep.ok else 'FAIL'} ({len(L)} covectors)")
    if args.json:
        _write_json(args.json, rep.to_json())
    return EXIT_OK if rep.ok else EXIT_FAILED


def cmd_realize(args) -> int:
    text = _read(args.input)
    A = parse_arrangement_file(text, source=args.input)
    L = enumerate_covectors(homogenize(A))
    _emit(format_covector_file(L), args.output)
    if args.json:
        _write_json(
            args.json,
            {
                "labels": list(L.ground.labels),
                "g": L.ground.g,
                "covectors": [str(x) for x in L],
            },
        )
    return EXIT_OK


def cmd_bounded(args) -> int:
    A, L = _load(args.input, args.g)
    L = _covectors_of(A, L)
    if L.ground.g is None:
        raise InputFormatError(
            "the input does not designate g; pass --g LABEL"
        )
    axioms = verify_covector_axioms(L)
    if not axioms.ok:
        failed = [
            key.upper()
            for key in ("l0", "l1", "l2", "l3")
            if not getattr(axioms, f"{key}_ok")
        ]
        print(
            f"error: covector axioms {', '.join(failed)} fail; "
            "not an oriented matroid",
            file=sys.stderr,
        )
        return EXIT_FAILED
    bc = bounded_complex(AffineOM(L))
    print(f"f-vector: {tuple(bc.f_vector)}")
    print(f"dim: {bc.dim}   euler: {bc.euler}   pure: {'yes' if bc.pure else 'no'}")
    sup = bc.support_labels()
    print(f"support: {' '.join(sup) if sup else '(mixed)'}")
    for x in bc:
        print(f"  {x}  (dim {bc.face_dim(x)})")
    if args.json:
        _write_json(
            args.json,
            {
                "f_vector": list(bc.f_vector),
                "dim": bc.dim,
                "euler": bc.euler,
                "pure": bc.pure,
                "support": list(sup),
                "covectors": [str(x) for x in bc],
            },
        )
    return EXIT_OK


def _print_verify_summary(rep) -> None:
    inst = rep.instance
    print(
        f"instance: {inst['source']} ({inst['kind']}, n={inst['n']}, "
        f"d={inst.get('d', '?')})"
    )
    s = rep.stages
    print(f"axioms: {'ok' if s['axioms']['ok'] else 'FAIL'}")
    if "uniformity" in s:
        u = s["uniformity"]
        print(f"uniform: {'yes' if u['uniform'] else 'no'}")
        b = s["bounded"]
        print(
            f"bounded complex: f={tuple(b['f_vector'])} euler={b['euler']} "
            f"dim={b['dim']} pure={'yes' if b['pure'] else 'no'}"
        )
        if s.get("boundedness_oracle", {}).get("applied"):
            o = s["boundedness_oracle"]
            print(
                "boundedness oracle: "
                + ("matches" if o["matches_f_vector"] and not o["mismatched_covectors"] else "MISMATCH")
            )
        col = s["collapse"]
        extra = (
            f" ({len(col['certificate']['steps'])} steps, replay "
            f"{'ok' if col.get('replay_ok') else 'FAIL'})"
            if col["certificate"]
            else ""
        )
        print(f"collapse: {col['status']}{extra}")
        kinds = {}
        for v in s["links"]["vertices"]:
            kinds[v["kind"]] = kinds.get(v["kind"], 0) + 1
        summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        print(f"links: {summary or 'none'}")
        sec = s["star_checks"]
        if sec.get("skipped"):
            print(f"star checks: skipped ({sec['reason']})")
        else:
            nfail = len(sec["failures"])
            print(
                f"star checks: {len(sec['per_x'])} covectors, "
                + ("all ok" if not nfail else f"{nfail} FAILED")
            )
            for note in sec.get("notes", ()):
                print(f"  note: {note}")
    print(f"verdict: {rep.verdict}")
    for r in rep.reasons:
        print(f"  - {r}")


def cmd_verify(args) -> int:
    A, L = _load(args.input, args.g)
    if A is not None:
        rep = verify_arrangement(A, source=args.input, budget=args.budget)
    else:
        if L.ground.g is None:
            raise InputFormatError(
                "the input does not designate g; pass --g LABEL"
            )
        rep = verify_covectors(L, source=args.input, budget=args.budget)
    _print_verify_summary(rep)
    if args.json:
        ts = (
            None
            if args.no_timestamp
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
        _write_json(args.json, rep.to_json(timestamp=ts))
    if rep.verdict == "ball-certified":
        return EXIT_OK
    if rep.verdict == "evidence-only" and args.allow_evidence:
        return EXIT_OK
    return EXIT_FAILED


def cmd_svg(args) -> int:
    text = _read(args.input)
    A = parse_arrangement_file(text, source=args.input)
    bounds = None
    if args.bounds:
        try:
            parts = [float(v) for v in args.bounds.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 4:
            raise InputFormatError(
                f"--bounds must be x0,y0,x1,y1 with numeric entries, "
                f"got {args.bounds!r}"
            )
        bounds = tuple(parts)
    _emit(render_arrangement_svg(A, bounds=bounds), args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    A = generate_arrangement(args.n, args.d, seed=args.seed)
    _emit(format_arrangement(A), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="omtop",
        description="exact verification of bounded complexes of affine "
        "oriented matroids",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp, covector_ok=True):
        sp.add_argument("input", help="input file")
        if covector_ok:
            sp.add_argument(
                "--g",
                help="element playing the hyperplane at infinity "
                "(covector inputs only; overrides a g line)",
            )

    sp = sub.add_parser("axioms", help="check the covector axioms")
    add_input(sp)
    sp.add_argument("--json", help="write the axiom report as JSON")
    sp.set_defaults(func=cmd_axioms)

    sp = sub.add_parser("realize", help="enumerate covectors of an arrangement")
    add_input(sp, covector_ok=False)
    sp.add_argument("-o", "--output", help="output path (default stdout)")
    sp.add_argument("--json", help="also write the covectors as JSON")
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("bounded", help="extract the bounded complex")
    add_input(sp)
    sp.add_argument("--json", help="write the bounded complex as JSON")
    sp.set_defaults(func=cmd_bounded)

    sp = sub.add_parser("verify", help="run the full verification pipeline")
    add_input(sp)
    sp.add_argument("--json", help="write the verification report as JSON")
    sp.add_argument(
        "--budget",
        type=int,
        default=10**6,
        help="search-node budget for collapse and link certification",
    )
    sp.add_argument(
        "--allow-evidence",
        action="store_true",
        help="exit 0 on evidence-only verdicts as well",
    )
    sp.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp from JSON output (byte-identical runs)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("svg", help="draw a dim-2 arrangement as SVG")
    add_input(sp, covector_ok=False)
    sp.add_argument("-o", "--output", help="output path (default stdout)")
    sp.add_argument("--bounds", help="drawing window as x0,y0,x1,y1")
    sp.set_defaults(func=cmd_svg)

    sp = sub.add_parser("generate", help="generate a uniform arrangement")
    sp.add_argument("n", type=int, help="number of hyperplanes")
    sp.add_argument("d", type=int, help="ambient dimension")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("-o", "--output", help="output path (default stdout)")
    sp.set_defaults(func=cmd_generate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OmtopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
