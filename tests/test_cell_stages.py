"""The per-cell stages of `verify` on indices: the link of every cell
of L++ on a window of L++'s own cell table, the homology of each window
on the same cells, and the star checks on the tope masks of
`bounded._TopeTable`.

Each is checked against the algorithm it replaced, kept in oracles.py
(`classify_links_by_subposets`, `simplicial_homology` of an order
complex, `star_checks_by_vectors`), on the
benchmark's workloads and on instances whose failing lifts run the
base loop to its end.  Every certified link carries a certificate that
replays on the re-indexed factor; corrupted certificates, bijections
and support restrictions fail as the oracles do.  The digests pin whole
`verify` reports, so a change that moves a byte of one shows here.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import omtop
import omtop.bounded as bounded
import omtop.topology as topology
from conftest import corrupt_cell, mk_arrangement
from omtop.bounded import (
    AffineOM,
    bounded_complex,
    check_bijection,
    cube_isomorphism,
    induced_shelling_of_CX,
    link_decomposition,
    restrict_to_support,
    shelling_of_DX,
)
from omtop.errors import PreconditionError
from omtop.generate import generate_arrangement
from omtop.matroid import CovectorSet
from omtop.realization import Arrangement, enumerate_covectors, homogenize
from omtop.signvec import SignVector
from omtop.topology import LinkCertificate, classify_links, homology
from omtop.verify import _star_checks, verify_arrangement, verify_covectors
from oracles import (
    any_refuted,
    check_bijection_by_vectors,
    classify_links_by_subposets,
    cube_isomorphism_by_scan,
    induced_shelling_by_scan,
    induced_shelling_by_vectors,
    link_certificate_replays,
    order_complex,
    restriction_ok_by_scan,
    simplicial_homology,
    star_checks_by_vectors,
)

S = SignVector.from_string
_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload(name: str, seed: int) -> list:
    """The instances of a benchmark workload, built read-only."""
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(_PERFBENCH))
    return workloads.build(name, omtop, seed)


def _affine(inst) -> AffineOM:
    if inst.arrangement is not None:
        return AffineOM(enumerate_covectors(homogenize(inst.arrangement)))
    return AffineOM(inst.fresh_input())


def _generated(n, d, seed) -> AffineOM:
    return AffineOM(enumerate_covectors(homogenize(
        generate_arrangement(n, d, seed=seed)
    )))


def _oms():
    """(id, AffineOM) of every workload instance that is an oriented
    matroid at seeds 1-3, then (7,5,1) and (7,5,2)."""
    out = []
    for name in ("wide", "deep", "refute"):
        for seed in (1, 2, 3):
            for inst in _workload(name, seed):
                if inst.dropped is None:
                    out.append((f"{name}/{seed}/{inst.id}", inst))
    return out


_OMS = _oms()
_D5 = [(7, 5, 1), (7, 5, 2)]


def _pinch(d: int) -> Arrangement:
    """x_i = 0 and sum x = +-1: two d-simplices meeting at the origin."""
    return Arrangement(
        dim=d,
        labels=tuple(f"x{i}" for i in range(d)) + ("s", "t"),
        normals=tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        + ((1,) * d, (1,) * d),
        offsets=(0,) * d + (1, -1),
    )


def _cell_posets():
    """(id, L++) of (5,4,0), of the refute sets at seed 1 that are
    oriented matroids, and of the pinch in R^5."""
    out = [("(5,4,0)", _generated(5, 4, 0).bounded_complex().as_poset())]
    for inst in _workload("refute", 1):
        if inst.dropped is None:
            out.append((inst.id, _affine(inst).bounded_complex().as_poset()))
    out.append(("pinch5", AffineOM(enumerate_covectors(homogenize(
        _pinch(5)))).bounded_complex().as_poset()))
    return out


_CELL_POSETS = _cell_posets()


class TestHomologyOnWindows:
    """`homology` of L++ and of every upper factor, on windows of L++'s
    cells, against the simplicial homology of the window's order
    complex; and every link decided with no collapse at all, by those
    homologies and the closed pseudomanifold test on cells, against the
    oracle that decides on order complexes."""

    @pytest.mark.parametrize("iid,P", _CELL_POSETS, ids=[i for i, _ in _CELL_POSETS])
    def test_every_window(self, iid, P):
        windows = [((1 << len(P)) - 1, P)] + [
            (P._up[i] ^ (1 << i), P.strictly_above(x)) for i, x in enumerate(P)
        ]
        for W, Q in windows:
            assert homology(P, W) == simplicial_homology(order_complex(Q))
        got = classify_links(P, budget=0).to_json()
        assert got == classify_links_by_subposets(P, budget=0).to_json()

    def test_deep_verify_builds_no_incidence_numbers(self, monkeypatch):
        def refuse(cells):
            raise AssertionError("incidence numbers built")

        monkeypatch.setattr(topology, "_incidences", refuse)
        for inst in _workload("deep", 1):
            rep = verify_arrangement(inst.arrangement, source=inst.id)
            assert rep.verdict == "ball-certified"


class TestLinksOnWindows:
    """classify_links on windows of L++ against the per-link sub-posets
    of the oracle: equal `to_json()`, and every certified link's
    certificate replays on the re-indexed factor."""

    @staticmethod
    def check(P):
        got = classify_links(P)
        assert got.to_json() == classify_links_by_subposets(P).to_json()
        certified = 0
        for v in got.verdicts:
            if v.certainty == "certified":
                assert v.certificate is not None
                assert link_certificate_replays(P, v.vertex, v.certificate)
                certified += 1
        return got, certified

    @pytest.mark.parametrize("iid,inst", _OMS, ids=[i for i, _ in _OMS])
    def test_workload_instances(self, iid, inst):
        P = _affine(inst).bounded_complex().as_poset()
        got, certified = self.check(P)
        assert any_refuted(got) == iid.split("/")[2].startswith("pinch")
        assert certified > 0

    @pytest.mark.parametrize("n,d,seed", _D5)
    def test_d5(self, n, d, seed):
        got, certified = self.check(
            _generated(n, d, seed).bounded_complex().as_poset()
        )
        assert got.all_certified and certified == len(got.verdicts)


def _three() -> AffineOM:
    # bounded part is a segment inside the line x = 0: E1 excludes a
    return AffineOM(enumerate_covectors(homogenize(mk_arrangement(
        2, [("a", (1, 0), 0), ("b", (0, 1), 0), ("c", (0, 1), 1)]
    ))))


def _star_fixtures():
    four = [("a", (1, 0), 0), ("b", (0, 1), 0), ("c", (1, 1), 1),
            ("d", (1, 1), 2)]
    five = [("a", (1, 0), 0), ("b", (0, 1), 0), ("c", (1, 1), 1),
            ("d", (-1, 1), 0), ("e", (1, 1), "1/2")]
    return {
        "three": _three(),
        "four": AffineOM(enumerate_covectors(homogenize(mk_arrangement(2, four)))),
        "five": AffineOM(enumerate_covectors(homogenize(mk_arrangement(2, five)))),
    }


def _outcome(f, *args):
    """f's result, or the type and text of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestStarChecksOnMasks:
    """_star_checks on tope masks against the per-X checks on sign
    vectors: equal dicts, or the same exception with the same text,
    full support or not.  Off uniform input a proper cell can have C_X
    but no D_X: its inherited shelling reports that, and the checks
    run on."""

    @pytest.mark.parametrize("iid,inst", _OMS, ids=[i for i, _ in _OMS])
    def test_workload_instances(self, iid, inst):
        M = _affine(inst)
        bc = M.bounded_complex()
        got = _outcome(_star_checks, M, bc)
        assert got == _outcome(star_checks_by_vectors, M, bc)
        assert isinstance(got, dict)
        no_dx = [e for e in got["per_x"] if e.get("dx_order") == []]
        assert bool(no_dx) == (iid.split("/")[0] == "refute")
        assert all(e["shelling_ok"] is False for e in no_dx)

    @pytest.mark.parametrize("iid", ["pinch2", "pinch3", "pinch4", "grid3x3", "grid2x1x1"])
    def test_empty_D_X_names_C_X(self, iid):
        (inst,) = [i for i in _workload("refute", 1) if i.id == iid]
        M = _affine(inst)
        bc = M.bounded_complex()
        seen = 0
        for x in bc:
            if not (x._pos | x._neg) & ~(1 << M.g_index):
                continue
            star = M.star(x)
            if star.D_X or not star.c_size:
                continue
            ind = induced_shelling_of_CX(M, x)
            assert ind.report is None and not ind.ok
            assert ind.problems[0] == (
                f"D_X is empty, and |C_X| = {star.c_size}"
            )
            assert ind == induced_shelling_by_vectors(M, x)
            assert ind == induced_shelling_by_scan(M, x)
            with pytest.raises(PreconditionError, match="D_X is empty"):
                shelling_of_DX(M, x)
            seen += 1
        assert seen

    def test_empty_D_X_in_all_three(self):
        # a cell of the pinch with one tope of C_X and no D_X: the
        # library and both oracles report it, none raises
        (inst,) = [i for i in _workload("refute", 1) if i.id == "pinch2"]
        M = _affine(inst)
        x = S("+-+0+")
        assert x in M.bounded_complex()
        star = M.star(x)
        assert not star.D_X and star.c_size == 1
        want = ("D_X is empty, and |C_X| = 1",)
        for f in (induced_shelling_of_CX, induced_shelling_by_vectors,
                  induced_shelling_by_scan):
            ind = f(M, x)
            assert ind.problems == want
            assert ind.report is None and not ind.ok
            assert ind.dx_order == ind.order == ()

    @pytest.mark.parametrize("n,d,seed", _D5)
    def test_d5_failing_lifts(self, n, d, seed):
        M = _generated(n, d, seed)
        bc = M.bounded_complex()
        got = _star_checks(M, bc)
        assert got == star_checks_by_vectors(M, bc)
        assert not got["failures"]
        assert len(got["notes"]) == 1

    @pytest.mark.parametrize("name", ["three", "four", "five"])
    def test_fixtures(self, name):
        M = _star_fixtures()[name]
        bc = M.bounded_complex()
        got = _outcome(_star_checks, M, bc)
        assert got == _outcome(star_checks_by_vectors, M, bc)


class TestCellRecords:
    """The four per-cell entry points read one record per cell, built
    for every cell of an AffineOM on the first request.  Asked about
    each cell of a fresh AffineOM, last cell first and before any
    `_star_checks` pass, they give the reports read after a full pass
    and the oracles' reports; with the support restriction applied
    too.  A record corrupted by hand is what every check and every star
    reads."""

    @staticmethod
    def reports(M, x) -> list:
        ld = link_decomposition(M, x)
        out = [
            cube_isomorphism(M.om, x),
            (ld.case, ld.lower.elements, ld.upper.elements),
        ]
        if (x._pos | x._neg) & ~(1 << M.g_index):
            ind = induced_shelling_of_CX(M, x)
            out += [check_bijection(M, x), ind, ind.order_names()]
        return out

    @pytest.mark.parametrize("build", [
        lambda: _generated(6, 4, 0), _three,
    ], ids=["(6,4,0)", "three"])
    def test_cold_requests_match_a_full_pass(self, build):
        cold = build()
        cells = list(cold.bounded_complex())[::-1]
        got = [self.reports(cold, x) for x in cells]
        warm = build()
        bc = warm.bounded_complex()
        _star_checks(warm, bc)
        assert got == [self.reports(warm, x) for x in cells]
        stars = 0
        for x, reports in zip(cells, got):
            assert reports[0] == cube_isomorphism_by_scan(cold.om, x)
            if len(reports) > 2:
                stars += 1
                assert reports[2] == check_bijection_by_vectors(cold, x)
                assert reports[3] == induced_shelling_by_vectors(cold, x)
        assert stars

    def test_a_star_set_by_hand_drives_the_checks(self, monkeypatch):
        M = _generated(6, 4, 0)
        bc = M.bounded_complex()
        x = next(
            x for x in bc
            if link_decomposition(M, x).case == "proper"
            and M.star(x).c_size > 1
        )
        star = M.star(x)
        cx = M._cell(x).cx
        # drop the first tope of C_X from the record
        corrupt_cell(M, x, cx=cx & (cx - 1), put=monkeypatch.setattr)
        # every star of x is a view of the same record
        assert M.star(x).C_X == star.C_X
        assert len(star.C_X) == star.c_size == cx.bit_count() - 1
        rep = check_bijection(M, x)
        assert not rep.ok
        assert rep == check_bijection_by_vectors(M, x)
        ind = induced_shelling_of_CX(M, x)
        assert not ind.ok
        assert ind == induced_shelling_by_vectors(M, x)
        got = _star_checks(M, bc)
        assert got == star_checks_by_vectors(M, bc)
        assert got["failures"] == [f"restriction bijection fails at {x}"]
        monkeypatch.undo()
        assert check_bijection(M, x).ok
        assert not _star_checks(M, bc)["failures"]


class TestStarCheckFailures:
    """A corrupted bijection or support restriction gives the oracle's
    problems and failures and a `refuted` verdict."""

    @staticmethod
    def corrupt_star(monkeypatch, target: S, how):
        # the checks read each cell's record, built once per AffineOM,
        # so the record is corrupted as soon as it is built
        real = bounded._cell_table

        def corrupted(M):
            cells = M._cells = real(M)
            if target in cells:
                how(M, target, cells[target])
            return cells

        monkeypatch.setattr(bounded, "_cell_table", corrupted)

    def check_bijection_corruption(self, monkeypatch, tri_om, how, texts):
        X = S("00-+")
        self.corrupt_star(monkeypatch, X, how)
        L = CovectorSet(tri_om.ground, tri_om.covectors)
        M = AffineOM(L)
        rep = check_bijection(M, X)
        assert rep.problems == check_bijection_by_vectors(M, X).problems
        assert rep.problems == texts
        bc = M.bounded_complex()
        stars = _star_checks(M, bc)
        assert stars == star_checks_by_vectors(M, bc)
        assert stars["failures"] == [f"restriction bijection fails at {X}"]
        out = verify_covectors(L)
        assert out.verdict == "refuted"
        assert out.reasons == (
            "star checks fail on a uniform instance: "
            f"restriction bijection fails at {X}",
        )

    def test_a_tope_added_to_DX(self, monkeypatch, tri_om):
        def add(M, x, cell):
            # +++, a tope of L/g outside D_X
            j = M._tope_table().index(S("+++"))
            corrupt_cell(M, x, dx=cell.dx | 1 << j)

        self.check_bijection_corruption(
            monkeypatch, tri_om, add, ("+++ in D_X has no preimage under r",),
        )

    def test_a_tope_dropped_from_CX(self, monkeypatch, tri_om):
        def drop(M, x, cell):
            corrupt_cell(M, x, cx=cell.cx & (cell.cx - 1))

        self.check_bijection_corruption(
            monkeypatch, tri_om, drop, ("+-- in D_X has no preimage under r",),
        )

    def test_a_corrupted_support_restriction(self, monkeypatch):
        real = bounded._restriction

        def corrupted(M, bc):
            restricted, dropped, pairs, ok, image = real(M, bc)
            (x, y), *rest = pairs
            pairs = ((x, -y), *rest)
            image = dict(pairs)
            bc2 = restricted.bounded_complex()
            ok = set(image.values()) == set(bc2.covectors)
            return restricted, dropped, pairs, ok, image

        monkeypatch.setattr(bounded, "_restriction", corrupted)
        M = _three()
        res = restrict_to_support(M)
        assert res.ok is False
        assert restriction_ok_by_scan(res) is False
        # the star checks run on the restricted set, which the pairs do
        # not touch; a star through the corrupted pair is refused
        bc2 = res.restricted.bounded_complex()
        got = _star_checks(res.restricted, bc2)
        assert got == star_checks_by_vectors(res.restricted, bc2)
        x = res.pairs[0][0]
        with pytest.raises(omtop.MembershipError, match="not bounded"):
            M.star(x)
        out = verify_covectors(CovectorSet(M.om.ground, M.om.covectors))
        assert out.verdict == "refuted"
        assert out.stages["restriction"]["isomorphic"] is False
        assert "support restriction is not an isomorphism" in out.reasons


class TestCorruptedLinkCertificate:
    """Through `verify`: a link certificate that fails its replay leaves
    the verdict `evidence-only`, not `ball-certified` and not
    `refuted`."""

    @pytest.mark.parametrize("corruption", ["swap", "order", "top"])
    def test_verdict_is_evidence_only(self, corruption, monkeypatch):
        real = topology._certify_window

        def corrupted(cells, W, closed, budget):
            cert = real(cells, W, closed, budget)
            if cert is None:
                return cert
            steps, top = cert.steps, cert.top
            if corruption == "swap" and steps:
                (s, t), *rest = steps
                steps = ((t, s), *rest)
            elif corruption == "order" and len(steps) > 1:
                steps = steps[-1:] + steps[:-1]
            elif corruption == "top" and top is not None:
                # the other cell of a closed factor of dimension 0
                top = (W & ~(1 << top)).bit_length() - 1
            return LinkCertificate(top, steps, cert.terminal)

        monkeypatch.setattr(topology, "_certify_window", corrupted)
        rep = verify_arrangement(generate_arrangement(6, 4, seed=0))
        assert rep.verdict == "evidence-only"
        assert rep.reasons == ()
        links = rep.stages["links"]
        assert not links["all_certified"] and links["is_manifold"]
        assert any(
            v["notes"][0].startswith("link certificate failed to replay")
            for v in links["vertices"] if v["notes"]
        )


def _digest(rep) -> str:
    text = json.dumps(rep.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of json.dumps(report.to_json(), sort_keys=True), taken before
# the per-cell stages moved onto indices; uniform instances are
# generate_arrangement(n, d, seed) verified with source "(n,d,seed)",
# the refute sets those of the benchmark's workload at seed 1
DIGESTS = {
    "(6,4,0)": "a7fd4ef5dbec78131d97b6652bad42d280380201f2d244f4d6d553b185c1af4b",
    "(5,4,0)": "ec6e1cabc7785d099684f80ffee251e47c990989c11dae5abb53c1bd0192bcec",
    "(11,2,0)": "80ea1c1bca9775f84c92572f779601bd21ee43b591ad44ba7a2d4b315ce38b2a",
    "(7,5,1)": "626986c93224b37f12876a25fd1a6481ab07f17f56beaa544f0fcb708a6c7a33",
    "pinch2": "cb9d75dc8f77313012e452eee57582809b7a1623cc316b85e4287768b8969633",
    "pinch3": "b3dfd54842207bec4a444cf6835a67b98d297ccaf3240078daa2ad0f01daed11",
    "pinch4": "7759b66aaaf026c12efb7b6d546f71a58afe9f28297533cf92b94cf21ce54f8b",
    "grid3x3": "f3f0134a92b2cc10e906f00a0dbc58005f58dc79d9ffc027109fa34ddc4b65d6",
    "grid2x1x1": "ea546a0b063040fc1a0567ca38c8c91bfe59fdc01565c1b3fcc905b66a42ec77",
    "(8,2,1000)-1": "10bf7e53f51a8af401cc06d2a5dabcf44a96776a5dc69f3bc77b69c67e92993b",
    "(5,3,1001)-1": "e69d7036b6956d0331bd20a0a2fc7e467874b77dd7ff49780bab7cf37cb6ceab",
    "(5,4,1002)-1": "8215093fe452e9ecfcbc9235205192295c513e7b59afa19edf904ced6e0d5e37",
}
# the pinch in R^5 (`_pinch(5)`) verified with source "pinch5", taken
# before `homology` moved onto the cells of L++
PINCH5_DIGEST = "8dc7b6ad4f80785ddf41c17e4a4670c8df65cef8758b9d4df4134be315007331"


class TestReportDigests:
    @pytest.mark.parametrize("iid", ["(6,4,0)", "(5,4,0)", "(11,2,0)", "(7,5,1)"])
    def test_uniform(self, iid):
        n, d, seed = map(int, iid.strip("()").split(","))
        rep = verify_arrangement(generate_arrangement(n, d, seed=seed), source=iid)
        assert rep.verdict == "ball-certified"
        assert _digest(rep) == DIGESTS[iid]

    def test_refute_sets_at_seed_1(self):
        got = {}
        for inst in _workload("refute", 1):
            rep = verify_covectors(inst.fresh_input(), source=inst.id)
            assert rep.verdict == inst.expected
            got[inst.id] = _digest(rep)
        assert got == {k: v for k, v in DIGESTS.items() if k in got}
        assert len(got) == 8

    def test_pinch5(self):
        rep = verify_arrangement(_pinch(5), source="pinch5")
        assert rep.verdict == "refuted"
        assert _digest(rep) == PINCH5_DIGEST
