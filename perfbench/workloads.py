"""The benchmark's workloads: seeded inputs with verdicts fixed by
construction.

Every instance carries the verdict its construction forces, never one
read back from a run:

* a uniform arrangement (from `generate_arrangement`, in any affine
  coordinates) is a PL ball, so `ball-certified`;
* a pinch (two d-simplices meeting at one vertex) is not a manifold,
  so `refuted`;
* a uniform covector set with one nonzero covector X dropped violates
  the symmetry axiom at -X, so `not-applicable`;
* a product-of-intervals grid (parallel families of hyperplanes) is a
  ball, so `ball-certified`, and it is not uniform, so the star checks
  are skipped.

`build(name, api, seed)` makes a workload's inputs from its seed alone;
`api` is the namespace of library entry points set-up may call, so the
traced run can hand in wrapped versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from omtop import Arrangement, CovectorSet

BALL = "ball-certified"
REFUTED = "refuted"
NOT_OM = "not-applicable"


@dataclass(frozen=True)
class Instance:
    id: str
    expected: str
    arrangement: Arrangement | None = None
    covectors: CovectorSet | None = None
    dropped: str | None = None  # the covector removed, for L1 witnesses
    star_skipped: bool = False  # non-uniform: star checks must be skipped

    def fresh_input(self):
        """The object one verify call consumes.  A covector set caches
        derived data on first use, so every call gets its own copy, as
        `omtop verify x.cov` would."""
        if self.covectors is None:
            return self.arrangement
        return CovectorSet(self.covectors.ground, self.covectors.covectors)

    def fingerprint(self) -> str:
        if self.covectors is None:
            A = self.arrangement
            return repr((A.dim, A.labels, A.normals, A.offsets))
        return repr(
            (self.covectors.ground.labels, self.covectors.ground.g,
             sorted(map(str, self.covectors)))
        )


def run_verify(verify_module, inst: Instance, inp):
    """Call the public entry point that matches the input kind."""
    if inst.arrangement is not None:
        return verify_module.verify_arrangement(inp, source=inst.id)
    return verify_module.verify_covectors(inp, source=inst.id)


def check(inst: Instance, report: dict) -> list[str]:
    """Problems with one report (empty when it is correct)."""
    problems = []
    stages = report["stages"]
    if report["verdict"] != inst.expected:
        problems.append(
            f"verdict {report['verdict']}, expected {inst.expected}"
        )
    if inst.expected == BALL:
        if stages.get("collapse", {}).get("replay_ok") is not True:
            problems.append("collapse certificate did not replay")
        oracle = stages.get("boundedness_oracle", {"applied": False})
        if oracle["applied"] and not (
            oracle["matches_f_vector"] and not oracle["mismatched_covectors"]
        ):
            problems.append("geometric boundedness oracle disagrees")
        skipped = stages.get("star_checks", {}).get("skipped", False)
        if skipped != inst.star_skipped:
            problems.append(f"star checks skipped={skipped}")
    if inst.expected == REFUTED and not any(
        r.startswith("link classification refutes") for r in report["reasons"]
    ):
        problems.append("refutation does not come from a link")
    if inst.dropped is not None:
        axioms = stages["axioms"]
        if axioms["l1_ok"] or inst.dropped not in axioms["l1_witnesses"]:
            problems.append(f"no L1 witness at {inst.dropped}")
    return problems


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _uniform(api, n: int, d: int, seed: int,
             rng: random.Random | None = None) -> Instance:
    """generate_arrangement(n, d, seed), moved by `rng` when given."""
    A = api.generate_arrangement(n, d, seed=seed)
    if rng is not None:
        A = _moved(A, rng)
    return Instance(f"({n},{d},{seed})", BALL, arrangement=A)


def _moved(A: Arrangement, rng: random.Random) -> Arrangement:
    """A in the coordinates y with x = P y + t, for a seeded signed
    permutation P and integral t.  Every hyperplane keeps its label and
    the sign it gives each point, so the covector set, and with it every
    count the pipeline reports, is that of A; only the numbers differ."""
    d = A.dim
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    t = [rng.randint(-2, 2) for _ in range(d)]
    return Arrangement(
        dim=d,
        labels=A.labels,
        normals=tuple(tuple(signs[j] * a[perm[j]] for j in range(d))
                      for a in A.normals),
        offsets=tuple(b - sum(a[i] * t[i] for i in range(d))
                      for a, b in zip(A.normals, A.offsets)),
    )


def _covector_instance(api, A: Arrangement, iid: str, expected: str,
                       rng: random.Random | None = None, **kw) -> Instance:
    """Enumerate A, optionally drop one nonzero covector, and pass the
    result through the covector file format."""
    L = api.enumerate_covectors(api.homogenize(A))
    if rng is not None:
        covs = [x for x in L.sorted_covectors() if not x.is_zero]
        x = rng.choice(covs)
        L = CovectorSet(L.ground, L.covectors - {x})
        kw["dropped"] = str(-x)
    text = api.format_covector_file(L)
    return Instance(iid, expected, covectors=api.parse_covector_file(
        text, source=iid), **kw)


def _pinch(d: int, rng: random.Random) -> Arrangement:
    """Coordinate hyperplanes x_i = 0 and two parallel hyperplanes
    sum x = a, sum x = -b: two d-simplices meeting at the origin.  The
    seed picks a, b and the order of the hyperplanes."""
    rows = [(f"x{i + 1}", tuple(int(i == j) for j in range(d)), 0)
            for i in range(d)]
    ones = (1,) * d
    rows.append(("s", ones, Fraction(rng.randint(1, 6), rng.randint(1, 3))))
    rows.append(("t", ones, -Fraction(rng.randint(1, 6), rng.randint(1, 3))))
    rng.shuffle(rows)
    return _arrangement(d, rows)


def _grid(sizes: tuple[int, ...], rng: random.Random) -> Arrangement:
    """Hyperplanes x_i = c for k_i + 1 increasing seeded values c per
    axis: a box subdivided into prod(k_i) cells."""
    d = len(sizes)
    rows = []
    for axis, k in enumerate(sizes):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for j in range(k + 1):
            normal = tuple(int(axis == a) for a in range(d))
            rows.append((f"{'xyzw'[axis]}{j}", normal, c))
            c += Fraction(rng.randint(1, 4), rng.randint(1, 3))
    rng.shuffle(rows)
    return _arrangement(d, rows)


def _arrangement(d: int, rows) -> Arrangement:
    return Arrangement(
        dim=d,
        labels=tuple(r[0] for r in rows),
        normals=tuple(r[1] for r in rows),
        offsets=tuple(r[2] for r in rows),
    )


# (n, d, s) of the uniform instances, generate_arrangement(n, d, seed=s);
# a run with seed S verifies each one moved by a change of coordinates
# drawn from S, so the inputs vary with S while the work, the counts and
# the memory stay those of the instance.  (11,2,0) sits at the 12-form cap
# of enumerate_covectors; (6,4,0) is the largest d = 4 instance whose
# verify fits several times in a run (the d = 5 instance (6,5,0) takes
# about 50 s), and (5,4,0) is the same kind of complex at a fifth of the
# size.
WIDE = ((11, 2, 0),)
DEEP = ((6, 4, 0), (5, 4, 0))
# refute (c): uniform sets with one covector dropped; instance k of a run
# with seed S is generate_arrangement(n, d, seed=1000*S + k)
DROPPED = ((8, 2), (5, 3), (5, 4))
PINCH_DIMS = (2, 3, 4)
GRIDS = ((3, 3), (2, 1, 1))


def build(name: str, api, seed: int) -> list[Instance]:
    """All inputs of workload `name` for `seed`."""
    if name in ("wide", "deep"):
        rng = random.Random(seed)
        return [_uniform(api, n, d, s, rng)
                for n, d, s in (WIDE if name == "wide" else DEEP)]
    if name != "refute":
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(seed)
    out = []
    for d in PINCH_DIMS:
        out.append(_covector_instance(
            api, _pinch(d, rng), f"pinch{d}", REFUTED))
    for sizes in GRIDS:
        out.append(_covector_instance(
            api, _grid(sizes, rng), "grid" + "x".join(map(str, sizes)),
            BALL, star_skipped=True))
    for k, (n, d) in enumerate(DROPPED):
        s = 1000 * seed + k
        A = api.generate_arrangement(n, d, seed=s)
        out.append(_covector_instance(
            api, A, f"({n},{d},{s})-1", NOT_OM, rng=rng))
    return out


WORKLOADS = ("wide", "deep", "refute")
