"""End-to-end pipeline: stages, verdicts, and report structure."""

import pytest

from omtop.bounded import AffineOM
from omtop.generate import generate_arrangement
from omtop.matroid import CovectorSet
from omtop.realization import Arrangement, enumerate_covectors, homogenize
from omtop.signvec import GroundSet, SignVector as S
from omtop.topology import CollapseCertificate, CollapseResult
from omtop.verify import VERDICTS, verify_arrangement, verify_covectors


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def line_report(line_arr):
    return verify_arrangement(line_arr, source="line")


@pytest.fixture(scope="module")
def tri_report(tri_arr):
    return verify_arrangement(tri_arr, source="triangle")


@pytest.fixture(scope="module")
def four_report(four_arr):
    return verify_arrangement(four_arr, source="four-line")


class TestCertifiedInstances:
    def test_line_ball_certified(self, line_report):
        assert line_report.verdict == "ball-certified"
        assert line_report.reasons == ()

    def test_triangle_ball_certified(self, tri_report):
        assert tri_report.verdict == "ball-certified"

    def test_line_stage_values(self, line_report):
        s = line_report.stages
        assert s["axioms"]["ok"]
        assert s["uniformity"]["uniform"]
        assert s["bounded"]["f_vector"] == [2, 1]
        assert s["bounded"]["euler"] == 1
        assert s["boundedness_oracle"]["applied"]
        assert s["boundedness_oracle"]["matches_f_vector"]
        assert s["boundedness_oracle"]["mismatched_covectors"] == []
        assert s["collapse"]["status"] == "collapsed"
        assert s["collapse"]["replay_ok"]
        assert s["links"]["all_certified"]
        assert not s["star_checks"].get("skipped")
        assert s["star_checks"]["failures"] == []

    def test_triangle_star_checks_cover_bounded_complex(self, tri_report):
        s = tri_report.stages
        assert len(s["star_checks"]["per_x"]) == s["bounded"]["size"] == 7
        assert all(e["cube_ok"] for e in s["star_checks"]["per_x"])
        assert s["star_checks"]["boundary_equivalence"]["ok"]
        assert s["star_checks"]["boundary_equivalence"]["checked"] > 0

    def test_instance_metadata(self, tri_report):
        inst = tri_report.instance
        assert inst["kind"] == "arrangement"
        assert inst["n"] == 3
        assert inst["d"] == 2
        assert inst["g"] == "g"

    def test_d3_instance_certified(self):
        A = generate_arrangement(5, 3, seed=2)
        rep = verify_arrangement(A, source="gen-5-3")
        assert rep.verdict == "ball-certified"
        assert rep.stages["bounded"]["pure"]

    def test_report_json_shape(self, line_report):
        j = line_report.to_json()
        assert j["schema"] == 1
        assert j["verdict"] in VERDICTS
        assert "timestamp" not in j
        j2 = line_report.to_json(timestamp="2026-01-01T00:00:00+00:00")
        assert j2["timestamp"] == "2026-01-01T00:00:00+00:00"


class TestFourLineRefutation:
    def test_refuted(self, four_report):
        assert four_report.verdict == "refuted"

    def test_not_uniform_and_star_checks_skipped(self, four_report):
        s = four_report.stages
        assert not s["uniformity"]["uniform"]
        assert s["star_checks"]["skipped"]

    def test_collapse_still_found(self, four_report):
        # the wedge of two triangles is collapsible; the refutation is
        # about the manifold property, not contractibility
        s = four_report.stages
        assert s["collapse"]["status"] == "collapsed"
        assert s["collapse"]["replay_ok"]

    def test_exactly_one_other_link_named(self, four_report):
        s = four_report.stages
        others = [
            v for v in s["links"]["vertices"] if v["kind"] == "other"
        ]
        assert len(others) == 1
        assert others[0]["vertex"] == "00-++"
        # the link of the wedge point falls apart into two pieces
        assert others[0]["homology"]["betti"][0] == 2
        assert any("00-++" in r for r in four_report.reasons)

    def test_oracle_still_matches(self, four_report):
        # non-uniformity does not disturb the geometric boundedness oracle
        o = four_report.stages["boundedness_oracle"]
        assert o["applied"] and o["matches_f_vector"]


class TestOtherVerdicts:
    def test_non_om_not_applicable(self):
        ground = GroundSet(("a", "g"), g="g")
        L = CovectorSet(
            ground, {S.from_string("00"), S.from_string("++")}
        )  # no negative of ++: L1 fails
        rep = verify_covectors(L, source="<mutant>")
        assert rep.verdict == "not-applicable"
        assert not rep.stages["axioms"]["ok"]
        assert "uniformity" not in rep.stages
        assert any("axioms" in r for r in rep.reasons)

    def test_budget_starved_is_evidence_only(self, tri_arr):
        rep = verify_arrangement(tri_arr, source="triangle", budget=1)
        assert rep.verdict == "evidence-only"
        assert rep.reasons == ()
        assert rep.stages["collapse"]["status"] == "exhausted"

    def test_covector_input_has_no_oracle_stage(self, tri_arr):
        L = enumerate_covectors(homogenize(tri_arr))
        rep = verify_covectors(L, source="<covectors>")
        assert rep.instance["kind"] == "covectors"
        assert "boundedness_oracle" not in rep.stages
        assert rep.verdict == "ball-certified"


class TestEachFactOnce:
    def test_one_boundedness_test_per_affine_face(self, tri_arr, monkeypatch):
        import omtop.realization as realization
        import omtop.verify as verify

        calls = _counting(monkeypatch, realization, "face_bounded")
        # calls made through a name verify imports count as well
        monkeypatch.setattr(
            verify, "face_bounded", realization.face_bounded, raising=False
        )
        rep = verify_arrangement(tri_arr)
        assert len(realization.enumerate_affine_faces(tri_arr)) == 19
        assert len(calls) == 19
        assert rep.stages["boundedness_oracle"]["matches_f_vector"]

    def test_one_star_per_bounded_cell(self, tri_om, monkeypatch):
        import omtop.bounded as bounded
        from omtop.verify import _star_checks

        M = AffineOM(tri_om)
        bc = M.bounded_complex()
        assert len(bc) == 7
        calls = _counting(monkeypatch, bounded.Star, "__init__")
        rep = _star_checks(M, bc)
        assert not rep["failures"]
        assert 0 < len(calls) <= len(bc)


class TestCorruptedCollapse:
    def test_failed_replay_refutes(self, tri_arr, monkeypatch):
        import omtop.verify as verify

        real = verify.find_collapse

        def corrupted(K, budget=10**6):
            res = real(K, budget=budget)
            steps = list(res.certificate.steps)
            steps[0], steps[-1] = steps[-1], steps[0]
            cert = CollapseCertificate(tuple(steps), res.certificate.terminal)
            return CollapseResult(
                res.status, cert, res.nodes, res.search_complete
            )

        monkeypatch.setattr(verify, "find_collapse", corrupted)
        rep = verify_arrangement(tri_arr)
        assert rep.verdict == "refuted"
        assert rep.stages["collapse"]["replay_ok"] is False
        (reason,) = rep.reasons
        assert reason.startswith(
            "collapse certificate failed to replay: collapse step 0"
        )


class TestNonEssential:
    def test_oracle_skipped_with_reason(self):
        A = Arrangement(
            dim=2,
            labels=("a", "b", "c"),
            normals=((1, 0), (1, 0), (1, 0)),
            offsets=(0, 1, 2),
        )
        rep = verify_arrangement(A, source="parallel")
        o = rep.stages["boundedness_oracle"]
        assert not o["applied"]
        assert "essential" in o["reason"]

    def test_restriction_recorded_when_support_drops(self):
        # a, b, c with c parallel to b: the bounded segment lies on b, c
        # only, so a is dropped from the common support
        A = Arrangement(
            dim=2,
            labels=("a", "b", "c"),
            normals=((1, 0), (0, 1), (0, 1)),
            offsets=(0, 0, 1),
        )
        rep = verify_arrangement(A, source="three")
        r = rep.stages["restriction"]
        assert r["applied"] and r["dropped"] == ["a"] and r["isomorphic"]
