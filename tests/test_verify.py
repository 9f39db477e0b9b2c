"""End-to-end pipeline: stages, verdicts, and report structure."""

import gc

import pytest

from conftest import TRIANGLE_ROWS, mk_arrangement
from omtop.bounded import AffineOM, bounded_complex
from omtop.generate import generate_arrangement
from omtop.matroid import CovectorSet, atoms, verify_covector_axioms
from omtop.realization import Arrangement, enumerate_covectors, homogenize
from omtop.signvec import GroundSet, SignVector as S
from omtop.svgfig import render_arrangement_svg
from omtop.errors import DomainError
from omtop.topology import (
    CollapseCertificate,
    CollapseResult,
    classify_links,
    find_collapse,
    verify_collapse,
)
from omtop.verify import VERDICTS, verify_arrangement, verify_covectors

from oracles import (
    any_refuted,
    find_collapse_by_state,
    link_facts,
    link_sweep,
    order_complex,
    pairwise_witnesses,
    verify_collapse_by_state,
    verify_on_the_order_complex,
)


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


class TestInheritedShellingIsNoEvidence:
    """A lifted [D_X] order that shells no [C_X] is a construction that
    fell short; the paper's theorem makes every uniform instance a ball."""

    @pytest.fixture(scope="class")
    def report(self):
        return verify_arrangement(generate_arrangement(7, 5, seed=1))

    def test_ball_certified_with_no_reasons(self, report):
        assert report.verdict == "ball-certified"
        assert report.reasons == ()
        assert report.stages["links"]["all_certified"]

    def test_failed_lift_is_noted_not_failed(self, report):
        sc = report.stages["star_checks"]
        failed = [e["X"] for e in sc["per_x"] if e.get("shelling_ok") is False]
        assert failed == ["0000+0-+"]
        assert sc["failures"] == []
        assert len(sc["notes"]) == 1 and "0000+0-+" in sc["notes"][0]

    def test_no_notes_key_when_every_lift_shells(self, tri_report):
        assert "notes" not in tri_report.stages["star_checks"]


class TestNoReferenceCycle:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_arrangement(generate_arrangement(5, 4, seed=0)),
            lambda: render_arrangement_svg(generate_arrangement(5, 2, seed=3)),
        ],
        ids=["verify", "svg"],
    )
    def test_nothing_left_for_the_collector(self, run):
        # the boundedness oracle and the picture enumerate the affine
        # faces; that must not leave a reference cycle behind
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEachFactOnce:
    def test_one_boundedness_test_per_affine_face(self, tri_arr, monkeypatch):
        import omtop.realization as realization
        import omtop.verify as verify

        calls = _counting(monkeypatch, verify, "face_bounded")
        enums = _counting(monkeypatch, realization, "enumerate_covectors")
        monkeypatch.setattr(
            verify, "enumerate_covectors", realization.enumerate_covectors
        )
        rep = verify_arrangement(tri_arr)
        # the affine faces are read off L, which is enumerated once
        assert len(enums) == 1
        assert len(realization.enumerate_affine_faces(tri_arr)) == 19
        assert len(calls) == 19
        assert rep.stages["boundedness_oracle"]["matches_f_vector"]

    def test_normal_cocircuits_once_per_arrangement(self, monkeypatch):
        import omtop.realization as realization

        found = _counting(monkeypatch, realization, "_cocircuits")
        A = mk_arrangement(2, TRIANGLE_ROWS)
        # nothing is computed when an arrangement is built
        assert found == []
        verify_arrangement(A)
        verify_arrangement(A)
        realization.bounded_faces(A)
        # the homogenized forms have d + 1 columns, the normals d
        widths = [len(forms[0]) for forms, _cap in found]
        assert widths.count(A.dim) == 1
        assert widths.count(A.dim + 1) == 3

    def test_realization_computes_only_on_integers(self, monkeypatch):
        import omtop.realization as realization
        from fractions import Fraction as F

        mats = _counting(monkeypatch, realization, "_eliminate")
        # x = 1/3, y = -2/5 and x/2 + 3y/4 = 7/6 bound a triangle
        A = Arrangement(
            dim=2,
            labels=("x", "y", "s"),
            normals=((1, 0), (0, 1), (F(1, 2), F(3, 4))),
            offsets=(F(1, 3), F(-2, 5), F(7, 6)),
        )
        rep = verify_arrangement(A)
        assert rep.verdict == "ball-certified"
        assert rep.stages["boundedness_oracle"]["matches_f_vector"]
        assert mats
        # ranks, determinants and the cocircuits of the forms and of
        # the normals all go through `_eliminate`
        for (mat,) in mats:
            assert all(type(c) is int for r in mat for c in r)

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (4, 3, 0)])
    def test_at_most_two_feasibility_tests_per_face(
        self, n, d, seed, monkeypatch
    ):
        # the Fourier-Motzkin oracle: an emptiness test and a recession
        # cone test per face
        import oracles
        import omtop.realization as realization

        A = generate_arrangement(n, d, seed=seed)
        assert realization.is_essential(A)
        faces = realization.enumerate_affine_faces(A)
        calls = _counting(monkeypatch, oracles, "feasible")
        bounded = 0
        for P in faces:
            del calls[:]
            bounded += oracles.face_bounded_by_fm(A, P)
            assert len(calls) <= 2
        assert bounded > 0

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

    def test_link_decomposition_reads_the_order(self, tri_om, monkeypatch):
        from omtop.bounded import link_decomposition

        M = AffineOM(tri_om)
        tri_om.order()
        bc = M.bounded_complex()
        assert len(bc) == 7
        calls = _counting(monkeypatch, S, "below")
        for x in bc:
            link_decomposition(M, x)
        assert calls == []

    def test_cube_isomorphism_scans_only_the_upper_interval(
        self, tri_om, monkeypatch
    ):
        from omtop.bounded import cube_isomorphism

        bc = AffineOM(tri_om).bounded_complex()
        # the cube is decided by the size of L>=X alone
        calls = _counting(monkeypatch, S, "below")
        for x in bc:
            assert cube_isomorphism(tri_om, x).ok
        assert calls == []

    def test_order_makes_no_pairwise_comparison(self, tri_om, monkeypatch):
        L = CovectorSet(tri_om.ground, tri_om.covectors)
        calls = _counting(monkeypatch, S, "below")
        P = L.order()
        assert len(P) == 51
        assert calls == []

    def test_uniform_om_skips_the_witness_pass(
        self, tri_om, four_om, declining_sets, monkeypatch
    ):
        """On an oriented matroid, uniform or not, every L2 count
        matches, so no missing composition is looked for, and the
        cocircuit decision settles L3, so the equal-support loop is never
        entered; on each set the decision declines, the loop runs."""
        import omtop.matroid as matroid

        missed = _counting(monkeypatch, matroid, "_missed_compositions")
        lifts = _counting(monkeypatch, matroid, "_pairs_below")
        direct = _counting(monkeypatch, matroid, "_unmet_eliminations")
        loops = _counting(monkeypatch, matroid, "_elimination_witnesses")
        oms = [tri_om, four_om] + [
            enumerate_covectors(homogenize(generate_arrangement(n, d, seed=s)))
            for n, d, s in ((4, 2, 0), (4, 3, 0), (5, 3, 1), (5, 4, 0))
        ]
        for L in oms:
            assert verify_covector_axioms(L).ok
        assert missed == lifts == direct == loops == []
        for check, L in declining_sets.items():
            rep = verify_covector_axioms(L)
            assert rep.l2_ok and not rep.l3_ok, check
            assert len(loops) == 1, check
            loops.clear()
        assert missed == []

    def test_elimination_failure_runs_the_witness_pass(
        self, four_om, monkeypatch
    ):
        """The four-line vertex-pair drop fails only elimination; its
        witnesses are the oracle's, and all of them come from lifting
        failed equal-support pairs."""
        import omtop.matroid as matroid

        missed = _counting(monkeypatch, matroid, "_missed_compositions")
        lifts = _counting(monkeypatch, matroid, "_pairs_below")
        direct = _counting(monkeypatch, matroid, "_unmet_eliminations")
        v = min(atoms(four_om), key=str)
        L = CovectorSet(four_om.ground, four_om.covectors - {v, -v})
        rep = verify_covector_axioms(L)
        assert rep.l2_ok and not rep.l3_ok
        assert (rep.l2_witnesses, rep.l3_witnesses) == pairwise_witnesses(L)
        assert lifts and missed == direct == []


class TestMutationSweep:
    """No covector set made by dropping from a seeded oriented matroid
    comes out ball-certified."""

    @pytest.mark.parametrize(
        "n,d,seed,singles",
        [(4, 2, 0, True), (4, 2, 1, True), (4, 3, 0, False)],
    )
    def test_dropped_covectors_and_negation_pairs(self, n, d, seed, singles):
        L = enumerate_covectors(homogenize(generate_arrangement(n, d, seed=seed)))
        nonzero = [x for x in L.sorted_covectors() if not x.is_zero]
        pairs = {frozenset((x, -x)) for x in nonzero}
        drops = [{x} for x in nonzero] if singles else []
        drops += sorted(pairs, key=lambda p: min(map(str, p)))
        assert len(pairs) == len(nonzero) // 2
        for drop in drops:
            M = CovectorSet(L.ground, L.covectors - drop)
            rep = verify_covectors(M)
            assert rep.verdict != "ball-certified", sorted(map(str, drop))


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


def _pinch(d: int) -> Arrangement:
    """x_i = 0 and sum x = +-1: two d-simplices meeting at the origin."""
    return Arrangement(
        dim=d,
        labels=tuple(f"x{i}" for i in range(d)) + ("s", "t"),
        normals=tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        + ((1,) * d, (1,) * d),
        offsets=(0,) * d + (1, -1),
    )


def _grid(k: int) -> Arrangement:
    """x = 0..k and y = 0..k: a square cut into k x k cells."""
    return Arrangement(
        dim=2,
        labels=tuple(f"x{c}" for c in range(k + 1))
        + tuple(f"y{c}" for c in range(k + 1)),
        normals=((1, 0),) * (k + 1) + ((0, 1),) * (k + 1),
        offsets=tuple(range(k + 1)) * 2,
    )


CORPUS = ["line", "triangle", "four-line", "(4,2,0)", "(5,2,1)", "(4,3,0)",
          "(5,3,0)", "pinch2", "pinch3", "grid3x3"]


@pytest.fixture
def named(line_arr, tri_arr, four_arr):
    """The corpus arrangement of a name: a fixture, a pinch, a grid or
    `generate_arrangement(n, d, seed)` for "(n,d,seed)"."""
    arrangements = {
        "line": line_arr,
        "triangle": tri_arr,
        "four-line": four_arr,
        "pinch2": _pinch(2),
        "pinch3": _pinch(3),
        "grid3x3": _grid(3),
    }

    def arrangement(name):
        if name in arrangements:
            return arrangements[name]
        n, d, seed = map(int, name.strip("()").split(","))
        return generate_arrangement(n, d, seed=seed)

    return arrangement


def _cells(A):
    """The cell poset L++ of an arrangement."""
    return bounded_complex(AffineOM(enumerate_covectors(homogenize(A)))).as_poset()


class TestLinksByUpperFactor:
    """`classify_links` on the cell poset agrees, cell by cell, with the
    sweep that certifies each whole vertex link of the order complex."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_the_vertex_link_sweep(self, name, named):
        P = _cells(named(name))
        got = classify_links(P)
        assert link_facts(got) == link_facts(link_sweep(order_complex(P)))
        assert any_refuted(got) == name.startswith(("four-line", "pinch"))

    @pytest.mark.parametrize("name", ["four-line", "(4,3,0)"])
    def test_verify_takes_no_link_of_the_order_complex(
        self, name, four_arr, monkeypatch
    ):
        # no order complex exists to build.  The collapse runs on the
        # cells, so once it replays no homology of L++ is computed; the
        # links certify on their cells too, so the only homology is that
        # of the upper factor of a cell with no collapse, the refuted
        # cell of four-line, on its window of L++'s cells, and only then
        # are the incidence numbers built
        import omtop.topology as topology
        import omtop.verify as verify

        assert not hasattr(topology, "order_complex")
        assert not hasattr(verify, "order_complex")
        A = four_arr if name == "four-line" else generate_arrangement(4, 3, 0)
        windows = []
        real_homology = topology.homology

        def recording(P, window=None):
            windows.append(window)
            return real_homology(P, window)

        monkeypatch.setattr(verify, "homology", recording)
        monkeypatch.setattr(topology, "homology", recording)
        signs = _counting(monkeypatch, topology, "_incidences")
        rep = verify_arrangement(A)
        assert rep.verdict == (
            "refuted" if name == "four-line" else "ball-certified"
        )
        assert rep.stages["collapse"]["replay_ok"] is True
        refuted = [
            v["vertex"] for v in rep.stages["links"]["vertices"]
            if v["certainty"] == "refuted"
        ]
        assert len(refuted) == (name == "four-line")
        P = _cells(A)
        above = [
            P._up[i] ^ (1 << i) for i, x in enumerate(P) if str(x) in refuted
        ]
        assert windows == above
        assert len(signs) == len(windows)


def _replays(P) -> bool:
    res = find_collapse(P)
    return res.collapsed and verify_collapse(P, res.certificate)


def _replays_on_K(K) -> bool:
    res = find_collapse_by_state(K)
    return res.collapsed and verify_collapse_by_state(K, res.certificate)


class TestCellCollapse:
    """`verify` collapses the cells of L++; the old path, the collapse of
    the order complex K = Delta(L++), is the oracle."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_matches_the_order_complex(self, name, named):
        A = named(name)
        P = _cells(A)
        assert _replays(P) == _replays_on_K(order_complex(P))
        new = verify_arrangement(A).to_json()
        old = verify_on_the_order_complex(A).to_json()
        assert new["verdict"] == old["verdict"]
        assert new["reasons"] == old["reasons"]
        for rep in (new, old):
            del rep["stages"]["collapse"]["certificate"]
            del rep["stages"]["collapse"]["nodes"]
        assert new == old


class TestCorruptedCellCertificate:
    """Every corruption of a cell certificate fails its replay at the
    step it corrupts."""

    @pytest.fixture(scope="class")
    def cells(self):
        P = _cells(generate_arrangement(4, 2, seed=0))
        cert = find_collapse(P).certificate
        assert verify_collapse(P, cert)
        return P, cert

    @staticmethod
    def replay(P, steps, terminal, match):
        with pytest.raises(DomainError, match=match):
            verify_collapse(P, CollapseCertificate(tuple(steps), terminal))

    def test_pair_that_is_not_a_cover(self, cells):
        P, cert = cells
        steps = list(cert.steps)
        sigma, tau = steps[0]
        steps[0] = (P.lower_covers(sigma)[0], tau)
        self.replay(P, steps, cert.terminal, "collapse step 0: .* not a facet")

    def test_sigma_with_a_second_live_coface(self, cells):
        P, cert = cells
        tau = cert.steps[0][1]
        shared = [s for s in P.lower_covers(tau) if len(P.upper_covers(s)) == 2]
        assert shared
        steps = [(shared[0], tau)] + list(cert.steps[1:])
        self.replay(P, steps, cert.terminal, "collapse step 0: .* not free")

    def test_tau_that_is_not_maximal(self, cells):
        P, cert = cells
        sigma = cert.steps[0][0]
        steps = [(P.lower_covers(sigma)[0], sigma)] + list(cert.steps[1:])
        self.replay(P, steps, cert.terminal, "collapse step 0: .* not maximal")

    def test_repeated_cell(self, cells):
        P, cert = cells
        steps = [cert.steps[0]] + list(cert.steps)
        self.replay(P, steps, cert.terminal, "collapse step 1: .* not a live face")

    def test_truncated_steps(self, cells):
        P, cert = cells
        n = len(cert.steps) - 1
        self.replay(
            P, cert.steps[:-1], cert.terminal,
            f"after {n} collapse steps: replay leaves 3 faces",
        )

    def test_wrong_terminal(self, cells):
        P, cert = cells
        other = next(x for x in P.minimal_elements() if x != cert.terminal)
        n = len(cert.steps)
        self.replay(
            P, cert.steps, other,
            f"after {n} collapse steps: replay leaves 1 faces",
        )
