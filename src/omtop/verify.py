"""The end-to-end verification pipeline.

One call runs an affine oriented matroid (given directly or realized
from an arrangement) through every check this tool knows: covector
axioms, uniformity, the bounded complex with purity and support, a
collapse certificate on the cells of L++ with the homology of the order
complex Delta(L++) (a point's when the certificate replays), the per-X
star checks (cube, restriction bijection, inherited shellings), the
link classification, and — for essential arrangements — the geometric
boundedness oracle.

Everything runs on the cell poset L++, and its order complex is never
built: its f-vector is read off L++ by counting chains, and when no
collapse certificate replays, `homology` computes its groups as the
cellular homology of L++.  The collapse is sound for the
following reasons.  Once the axioms pass, L++ is the face poset of a PL
regular cell complex, the premise `classify_links` states.  An
elementary cellular collapse (sigma a facet of tau, tau maximal and
the only live cell above sigma) is then a PL elementary collapse.  A
PL manifold that collapses to a point is a PL ball (Whitehead 1939;
Rourke & Sanderson, Introduction to PL topology, ch. 3).  The manifold
property comes from the links, certified by induction on L++.  The link
of a cell X is the join of the sphere below X (a theorem, once the
axioms pass) with U_X, the order complex of the cells above X, and only
U_X is certified, by a collapse of those cells that is replayed before
the link counts.  A vertex link of U_X is the join of a sphere with U_Y
for a cell Y above X, so U_X is a PL manifold once every U_Y is
certified, and a link counts as certified only then.  When every link
is certified, Delta(L++) is a PL manifold.
The outcome is a schema-versioned report whose verdict is forced by the
embedded evidence:

* ball-certified: every stage certifies; the complex collapses, all
  links certify as spheres or balls, homology is a point's.
* evidence-only: nothing refuted, but some certificate is missing
  (budget ran out, or a link stayed at evidence strength).
* refuted: exact negative evidence (an axiom witness, a non-manifold
  link, wrong homology, a failed cube, bijection or boundary-equivalence
  check on a uniform instance).  An inherited shelling that fails is a
  construction that fell short, not evidence: it is noted in the star
  checks and never refutes.
* not-applicable: the input is not an oriented matroid at all; the
  ball question does not arise.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .bounded import (
    AffineOM,
    bounded_complex,
    check_bijection,
    boundary_equivalence,
    cube_isomorphism,
    induced_shelling_of_CX,
    link_decomposition,
    restrict_to_support,
)
from .errors import DomainError
from .matroid import CovectorSet, is_uniform, verify_covector_axioms
from .realization import (
    Arrangement,
    affine_face_dim,
    enumerate_covectors,
    face_bounded,
    face_census,
    homogenize,
    is_essential,
)
from .signvec import SignVector, _bits
from .topology import (
    HomologyTable,
    _chain_counts,
    classify_links,
    find_collapse,
    homology,
    verify_collapse,
)

VERDICTS = ("ball-certified", "evidence-only", "refuted", "not-applicable")


@dataclass(frozen=True)
class VerificationReport:
    schema: int
    instance: dict
    stages: dict
    verdict: str
    reasons: tuple[str, ...]

    def to_json(self, timestamp: str | None = None) -> dict:
        out = {
            "schema": self.schema,
            "tool": {"name": "omtop", "version": __version__},
            "instance": self.instance,
            "stages": self.stages,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }
        if timestamp is not None:
            out["timestamp"] = timestamp
        return out


def verify_covectors(
    L: CovectorSet,
    source: str = "<memory>",
    budget: int = 10**6,
    arrangement: Arrangement | None = None,
) -> VerificationReport:
    """Run the full pipeline on a covector set (realized or not).

    `arrangement`, when given, must be the arrangement L was enumerated
    from: L is the covector set of `homogenize(arrangement)`, as
    `verify_arrangement`, the only caller that passes it, guarantees.
    The geometric boundedness oracle then takes its faces from L (the
    covectors + at g, with g deleted) instead of enumerating them again,
    and decides each with `face_bounded` and `affine_face_dim`.  It stays
    independent of L++: it decides on a different matrix, the normals
    of the arrangement, by a different criterion, a cocircuit at
    infinity below the face's pattern, where L++ is read off the
    down-sets of L's order."""
    instance = {
        "source": source,
        "kind": "arrangement" if arrangement is not None else "covectors",
        "labels": list(L.ground.labels),
        "g": L.ground.g,
        "n": len(L.ground) - 1,
        "covectors": len(L),
    }
    stages: dict = {}
    reasons: list[str] = []

    axioms = verify_covector_axioms(L)
    stages["axioms"] = axioms.to_json()
    if not axioms.ok:
        reasons.append("covector axioms fail; not an oriented matroid")
        return VerificationReport(
            1, instance, stages, "not-applicable", tuple(reasons)
        )

    M = AffineOM(L)
    uni = is_uniform(L)
    stages["uniformity"] = uni.to_json(L.ground)
    instance["d"] = uni.rank - 1

    bc = bounded_complex(M)
    stages["bounded"] = {
        "size": len(bc),
        "f_vector": list(bc.f_vector),
        "euler": bc.euler,
        "dim": bc.dim,
        "pure": bc.pure,
        "support": list(bc.support_labels()),
        "covectors": list(bc.names()),
    }
    if not bc.pure:
        reasons.append("bounded complex is not pure")

    # restrict to the common support for the star checks
    if bc.support == frozenset((M.g_index,)):
        stages["restriction"] = {
            "applied": False,
            "reason": "the bounded complex is one point supported by g "
            "alone; deleting every other element leaves the excluded "
            "trivial case |E| = 1",
        }
        M_full, bc_full = M, bc
    elif bc.support is not None and bc.support != frozenset(
        range(len(L.ground))
    ):
        res = restrict_to_support(M)
        stages["restriction"] = {
            "applied": True,
            "dropped": list(res.dropped),
            "isomorphic": res.ok,
        }
        if not res.ok:
            reasons.append("support restriction is not an isomorphism")
        M_full, bc_full = res.restricted, bounded_complex(res.restricted)
    else:
        stages["restriction"] = {"applied": False}
        M_full, bc_full = M, bc

    # the geometric oracle, when the input came from an arrangement
    if arrangement is not None:
        if is_essential(arrangement):
            gi = M.g_index
            elements = L.order().elements
            width = len(L.ground) - 1
            low = (1 << gi) - 1  # the coordinates below g keep their bits
            faces = {}
            mismatches = []
            # the covectors + at g, in sign-string order (L's order),
            # with g deleted
            for i in _bits(L._sign_columns()[gi][0]):
                x = elements[i]
                xp, xn = x._pos, x._neg
                P = SignVector(
                    width,
                    (xp & low) | (xp >> 1 & ~low),
                    (xn & low) | (xn >> 1 & ~low),
                )
                bounded = face_bounded(arrangement, P)
                if bounded:
                    faces[P] = affine_face_dim(arrangement, P)
                if bounded != bool(bc._mask >> i & 1):
                    mismatches.append(str(x))
            census = face_census(faces)
            f = list(bc.f_vector)
            stages["boundedness_oracle"] = {
                "applied": True,
                "census": list(census),
                "matches_f_vector": list(census) == f,
                "mismatched_covectors": mismatches,
            }
            if list(census) != f or mismatches:
                reasons.append(
                    "bounded complex disagrees with the geometric "
                    "boundedness oracle"
                )
        else:
            stages["boundedness_oracle"] = {
                "applied": False,
                "reason": "arrangement is not essential; metric "
                "boundedness does not match the combinatorial notion",
            }

    # the collapse, on the cells of L++: a replayed one proves the order
    # complex Delta(L++) has a point's homology, so `homology` runs on
    # the cells only when there is none
    P = bc_full.as_poset()
    col = find_collapse(P, budget=budget)
    col_stage = {"status": col.status, "nodes": col.nodes}
    replay_failure = None
    if col.certificate is not None:
        try:
            replay_ok = verify_collapse(P, col.certificate)
        except DomainError as exc:
            replay_ok = False
            replay_failure = f"collapse certificate failed to replay: {exc}"
        col_stage["certificate"] = col.certificate.to_json()
        col_stage["replay_ok"] = replay_ok
    else:
        col_stage["certificate"] = None
    if col_stage.get("replay_ok"):
        H = HomologyTable.point(P.height())
    else:
        H = homology(P)
    stages["order_complex"] = {
        "f_vector": list(_chain_counts(P)),
        "homology": H.to_json(),
    }
    if not H.is_ball():
        reasons.append("order complex does not have the homology of a point")
    if replay_failure is not None:
        reasons.append(replay_failure)
    stages["collapse"] = col_stage

    links = classify_links(P, budget=budget)
    stages["links"] = links.to_json()
    refuted_links = [
        v.vertex for v in links.verdicts if v.certainty == "refuted"
    ]
    if refuted_links:
        reasons.append(
            "link classification refutes the manifold property at "
            + ", ".join(str(v) for v in sorted(refuted_links, key=str))
        )

    # per-X star checks (uniform-only statements)
    if uni.uniform:
        stages["star_checks"] = _star_checks(M_full, bc_full)
        if stages["star_checks"]["failures"]:
            reasons.append(
                "star checks fail on a uniform instance: "
                + "; ".join(stages["star_checks"]["failures"][:3])
            )
    else:
        stages["star_checks"] = {
            "skipped": True,
            "reason": "input is not uniform; the star lemmas are "
            "uniform-only statements",
        }

    verdict = _verdict(stages, reasons, links, col)
    return VerificationReport(1, instance, stages, verdict, tuple(reasons))


def _star_checks(M: AffineOM, bc) -> dict:
    """Cube, bijection, and shelling checks for every bounded covector.

    A failed cube, bijection or boundary-equivalence check goes into
    `failures`: each is a lemma about every uniform affine OM, so its
    failure proves the input is not one.  The inherited shelling is a
    construction: it lifts one fixed order per base tope, and a lift
    that shells [C_X] exists only for suitable bases.  Its failure is
    reported as `shelling_ok: false` and a line in `notes` (a key present
    only when there is one), never as a failure.

    The per-cell checks read each X's cell record, built for every cell
    of M by the first of them (`AffineOM._cell`); |C_X| is read off it.
    """
    gbit = 1 << M.g_index
    per_x = []
    failures = []
    notes = []
    be = boundary_equivalence(M)
    if not be.ok:
        failures.append(
            f"boundary equivalence fails at {len(be.witnesses)} covectors"
        )
    for x, name in zip(bc, bc.names()):
        entry: dict = {"X": name}
        cube = cube_isomorphism(M.om, x)
        entry["cube_ok"] = cube.ok
        entry["cube_size"] = cube.actual_size
        if not cube.ok:
            failures.append(f"cube check fails at {name}")
        if not (x._pos | x._neg) & ~gbit:
            entry["star"] = "degenerate"
            per_x.append(entry)
            continue
        bij = check_bijection(M, x)
        c_size = M._cell(x).cx.bit_count()
        entry["c_size"] = c_size
        entry["bijection_ok"] = bij.ok
        if not bij.ok:
            failures.append(f"restriction bijection fails at {name}")
        ld = link_decomposition(M, x)
        entry["case"] = ld.case
        if ld.case == "proper" and c_size:
            ind = induced_shelling_of_CX(M, x)
            dx_names, cx_names = ind.order_names()
            entry["dx_order"] = list(dx_names)
            entry["cx_order"] = list(cx_names)
            entry["shelling_ok"] = ind.ok
            entry["shelling_mode"] = (
                ind.report.mode if ind.report is not None else None
            )
            if not ind.ok:
                notes.append(
                    f"no lifted order of a [D_X] shelling shells [C_X] at {name}"
                )
        per_x.append(entry)
    out = {
        "skipped": False,
        "boundary_equivalence": {
            "ok": be.ok,
            "checked": be.checked,
            "witnesses": [str(w) for w in be.witnesses],
        },
        "per_x": per_x,
        "failures": failures,
    }
    if notes:
        out["notes"] = notes
    return out


def _verdict(stages, reasons, links, col) -> str:
    if reasons:
        return "refuted"
    certified = (
        col.collapsed
        and stages["collapse"].get("replay_ok", False)
        and links.all_certified
    )
    return "ball-certified" if certified else "evidence-only"


def verify_arrangement(
    A: Arrangement,
    source: str = "<memory>",
    budget: int = 10**6,
) -> VerificationReport:
    """Realize the arrangement and verify the resulting affine OM."""
    L = enumerate_covectors(homogenize(A))
    rep = verify_covectors(L, source=source, budget=budget, arrangement=A)
    rep.instance["d"] = A.dim
    rep.instance["n"] = A.n
    return rep
