"""The end-to-end verification pipeline.

One call runs an affine oriented matroid (given directly or realized
from an arrangement) through every check this tool knows: covector
axioms, uniformity, the bounded complex with purity and support, the
order complex with its homology, a collapse certificate, the per-X
star checks (cube, restriction bijection, inherited shellings), the
link classification, and — for essential arrangements — the geometric
boundedness oracle.  The outcome is a schema-versioned report whose
verdict is forced by the embedded evidence:

* ball-certified: every stage certifies; the complex collapses, all
  links certify as spheres or balls, homology is a point's.
* evidence-only: nothing refuted, but some certificate is missing
  (budget ran out, or a link stayed at evidence strength).
* refuted: exact negative evidence (an axiom witness, a non-manifold
  link, wrong homology, a failed star check on a uniform instance).
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
    bounded_faces,
    enumerate_covectors,
    face_census,
    homogenize,
    is_essential,
)
from .signvec import Sign
from .topology import (
    classify_links,
    find_collapse,
    homology,
    order_complex,
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
    """Run the full pipeline on a covector set (realized or not)."""
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
        "covectors": [str(x) for x in bc],
    }
    if not bc.pure:
        reasons.append("bounded complex is not pure")

    # restrict to the common support for the star checks
    if bc.support is not None and bc.support != frozenset(
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
            faces = bounded_faces(arrangement)
            census = face_census(faces)
            gi = M.g_index
            mismatches = []
            for x in sorted(
                (x for x in L if x.sign(gi) is Sign.PLUS), key=str
            ):
                if (x.delete([gi]) in faces) != (x in bc):
                    mismatches.append(str(x))
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

    # the order complex and its topology
    K = order_complex(bc_full.as_poset())
    H = homology(K)
    stages["order_complex"] = {
        "f_vector": list(K.f_vector()),
        "homology": H.to_json(),
    }
    if not H.is_ball():
        reasons.append("order complex does not have the homology of a point")

    col = find_collapse(K, budget=budget)
    col_stage = {"status": col.status, "nodes": col.nodes}
    if col.certificate is not None:
        try:
            replay_ok = verify_collapse(K, col.certificate)
        except DomainError as exc:
            replay_ok = False
            reasons.append(f"collapse certificate failed to replay: {exc}")
        col_stage["certificate"] = col.certificate.to_json()
        col_stage["replay_ok"] = replay_ok
    else:
        col_stage["certificate"] = None
    stages["collapse"] = col_stage

    links = classify_links(K, budget=budget)
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
    """Cube, bijection, and shelling checks for every bounded covector."""
    gi = M.g_index
    per_x = []
    failures = []
    be = boundary_equivalence(M)
    if not be.ok:
        failures.append(
            f"boundary equivalence fails at {len(be.witnesses)} covectors"
        )
    for x in bc:
        entry: dict = {"X": str(x)}
        cube = cube_isomorphism(M.om, x)
        entry["cube_ok"] = cube.ok
        entry["cube_size"] = cube.actual_size
        if not cube.ok:
            failures.append(f"cube check fails at {x}")
        if x.delete([gi]).is_zero:
            entry["star"] = "degenerate"
            per_x.append(entry)
            continue
        bij = check_bijection(M, x)
        entry["c_size"] = len(bij.pairs)
        entry["bijection_ok"] = bij.ok
        if not bij.ok:
            failures.append(f"restriction bijection fails at {x}")
        ld = link_decomposition(M, x)
        entry["case"] = ld.case
        if ld.case == "proper" and bij.pairs:
            ind = induced_shelling_of_CX(M, x)
            entry["dx_order"] = [str(t) for t in ind.dx_order]
            entry["cx_order"] = [str(t) for t in ind.order]
            entry["shelling_ok"] = ind.ok
            entry["shelling_mode"] = (
                ind.report.mode if ind.report is not None else None
            )
            if not ind.ok:
                failures.append(f"inherited shelling fails at {x}")
        per_x.append(entry)
    return {
        "skipped": False,
        "boundary_equivalence": {
            "ok": be.ok,
            "checked": be.checked,
            "witnesses": [str(w) for w in be.witnesses],
        },
        "per_x": per_x,
        "failures": failures,
    }


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
