"""Covector sets: axioms with witnesses, rank, uniformity, minors, tope
posets, and the covector file format.

Census numbers for the canonical instances (|L| = 13 for the segment,
51 for the triangle, 71 for the four-line) were pinned by the
brute-force scan over all 3^n sign patterns with pruning disabled
before being frozen here.
"""

import functools
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from omtop.errors import (
    DimensionError,
    DomainError,
    InputFormatError,
    MembershipError,
)
from omtop.generate import generate_arrangement
from omtop.matroid import (
    AxiomReport,
    CovectorSet,
    _cocircuit_decline,
    delete_minor,
    format_covector_file,
    is_uniform,
    parse_covector_file,
    verify_covector_axioms,
)
from omtop.realization import enumerate_covectors, homogenize
from omtop.signvec import GroundSet, Sign, SignVector, _bits

from conftest import FOURLINE_ROWS, TRIANGLE_ROWS, mk_arrangement
from oracles import (
    contract,
    equal_support_elimination,
    format_covector_file_by_coordinates,
    pairwise_witnesses,
    parse_covector_file_by_lines,
    restriction_l2_witnesses,
    scan_atoms,
    scan_axioms,
    sign_columns_by_bits,
    sorted_by_sign_string,
    tope_poset,
    topes,
)

S = SignVector.from_string


def cs(labels, strings, g=None) -> CovectorSet:
    return CovectorSet(GroundSet(labels, g=g), [S(x) for x in strings])


class TestCovectorSet:
    def test_set_semantics_and_iteration_order(self):
        L = cs(["a", "b"], ["00", "+0", "-0"])
        assert len(L) == 3
        assert S("+0") in L
        assert S("++") not in L
        assert [str(x) for x in L] == sorted(["00", "+0", "-0"])

    def test_duplicates_collapse(self):
        L = CovectorSet(GroundSet(["a"]), [S("+"), S("+"), S("0")])
        assert len(L) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cs(["a", "b"], ["+"])

    def test_loops(self):
        L = cs(["a", "b"], ["00", "+0", "-0"])
        assert L.loops() == frozenset({1})
        M = cs(["a"], ["0", "+", "-"])
        assert M.loops() == frozenset()


def _random_sets(n: int, seed: int) -> list[CovectorSet]:
    """Seeded sets of sign vectors of length n, of 1 to 300 members,
    plus the empty set."""
    rng = random.Random(seed)
    ground = GroundSet([f"e{i}" for i in range(n)])
    out = [CovectorSet(ground, [])]
    for size in (1, 2, 5, 40, 300):
        vecs = []
        for _ in range(size):
            pos = rng.getrandbits(n) if n else 0
            neg = rng.getrandbits(n) & ~pos if n else 0
            # some vectors mostly zero, so every digit leads somewhere
            if rng.random() < 0.3:
                keep = rng.getrandbits(n) if n else 0
                pos, neg = pos & keep, neg & keep
            vecs.append(SignVector(n, pos, neg))
        out.append(CovectorSet(ground, vecs))
    return out


class TestSortAndColumns:
    """The integer sort key of `sorted_covectors` against sorting by
    sign strings, and the byte-plane `_sign_columns` against setting
    one bit per sign, at the byte boundaries of n."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17])
    def test_against_sign_strings_and_bits(self, n):
        for L in _random_sets(n, seed=n):
            assert L.sorted_covectors() == sorted_by_sign_string(L)
            assert L._sign_columns() == sign_columns_by_bits(L)

    def test_empty_set(self):
        L = CovectorSet(GroundSet(["a", "b", "c"]), [])
        assert L.sorted_covectors() == ()
        assert L._sign_columns() == ((0, 0, 0),) * 3

    @pytest.mark.parametrize("n,d,seed", [(6, 4, 0), (11, 2, 0)])
    def test_generated(self, n, d, seed):
        L = enumerate_covectors(homogenize(generate_arrangement(n, d, seed)))
        assert L.sorted_covectors() == sorted_by_sign_string(L)
        assert L._sign_columns() == sign_columns_by_bits(L)


class TestAxioms:
    def test_rank_one_om_passes(self):
        rep = verify_covector_axioms(cs(["e"], ["0", "+", "-"]))
        assert rep.ok
        assert rep.l0_ok and rep.l1_ok and rep.l2_ok and rep.l3_ok
        assert bool(rep)

    def test_l0_failure(self):
        rep = verify_covector_axioms(cs(["e"], ["+", "-"]))
        assert not rep.l0_ok
        assert not rep.ok

    def test_l1_failure_with_witness(self):
        rep = verify_covector_axioms(cs(["e"], ["0", "+"]))
        assert rep.l0_ok
        assert not rep.l1_ok
        assert rep.l1_witnesses == (S("+"),)

    def test_l2_failure_with_witness(self):
        # one-point arrangements on two independent axes, compositions
        # (the open quadrants) left out
        rep = verify_covector_axioms(
            cs(["a", "b"], ["00", "0+", "0-", "+0", "-0"])
        )
        assert rep.l0_ok and rep.l1_ok
        assert not rep.l2_ok
        assert (S("0+"), S("+0")) in rep.l2_witnesses

    def test_l3_failure_with_witness(self):
        # four full quadrants without the separating axes: elimination
        # between ++ and +- has nowhere to land
        rep = verify_covector_axioms(
            cs(["a", "b"], ["00", "++", "--", "+-", "-+"])
        )
        assert rep.l0_ok and rep.l1_ok and rep.l2_ok
        assert not rep.l3_ok
        assert (S("++"), S("+-"), 1) in rep.l3_witnesses

    def test_two_parallel_elements_pass(self):
        # forms x and x on the line: a legitimate rank-1 set
        rep = verify_covector_axioms(cs(["a", "b"], ["00", "++", "--"]))
        assert rep.ok

    def test_report_json(self):
        rep = verify_covector_axioms(cs(["a", "b"], ["00", "0+"]))
        js = rep.to_json()
        assert js["ok"] is False
        assert js["l1_witnesses"] == ["0+"]

    def test_canonical_instances_pass(self, line_om, tri_om, four_om):
        for L in (line_om, tri_om, four_om):
            rep = verify_covector_axioms(L)
            assert rep.ok and rep == scan_axioms(L)


def _composition_closure(vectors: set) -> set:
    out = set(vectors)
    while True:
        new = {x.compose(y) for x in out for y in out} - out
        if not new:
            return out
        out |= new


@st.composite
def axiom_test_sets(draw) -> CovectorSet:
    """Sign-vector sets with and without the zero vector, each closed
    under negation or not and under composition or not (negation first,
    so a set closed under both is possible)."""
    n = draw(st.integers(1, 4))
    strings = draw(
        st.sets(st.text(alphabet="+-0", min_size=n, max_size=n), max_size=8)
    )
    vectors = {S(s) for s in strings}
    if draw(st.booleans()):
        vectors.add(SignVector.zero(n))
    if draw(st.booleans()):
        vectors |= {-x for x in vectors}
    if draw(st.booleans()):
        vectors = _composition_closure(vectors)
    return CovectorSet(GroundSet([f"e{i}" for i in range(n)]), vectors)


@functools.cache
def _seeded_om(key) -> CovectorSet:
    if key == "triangle":
        A = mk_arrangement(2, TRIANGLE_ROWS)
    elif key == "four-line":
        A = mk_arrangement(2, FOURLINE_ROWS)
    elif isinstance(key, tuple):
        n, d, seed = key
        A = generate_arrangement(n, d, seed=seed)
    else:
        A = generate_arrangement(3, 2, seed=key)
    return enumerate_covectors(homogenize(A))


@st.composite
def mutated_oms(draw) -> CovectorSet:
    """A seeded OM with one covector dropped, one negation pair dropped
    (the L3-only case of the four-line vertex pair among them), or one
    sign vector outside it added."""
    L = _seeded_om(draw(st.sampled_from(["triangle", "four-line", 0, 1, 2])))
    covs = L.sorted_covectors()
    kind = draw(st.sampled_from(["drop", "drop-pair", "add"]))
    if kind == "add":
        s = draw(
            st.text(alphabet="+-0", min_size=len(L.ground),
                    max_size=len(L.ground)).filter(lambda s: S(s) not in L)
        )
        return CovectorSet(L.ground, L.covectors | {S(s)})
    x = draw(st.sampled_from(covs))
    drop = {x} if kind == "drop" else {x, -x}
    return CovectorSet(L.ground, L.covectors - drop)


@st.composite
def witness_sets(draw) -> CovectorSet:
    """A seeded OM broken so that its L3 witnesses come from both routes
    of the witness pass: a dropped covector above an atom (compositions
    go missing), a dropped negation pair of atoms (only elimination
    fails), or up to three sign vectors outside it added."""
    L = _seeded_om(
        draw(st.sampled_from([(4, 2, 0), (4, 2, 1), (5, 2, 2), (4, 3, 0)]))
    )
    kind = draw(st.sampled_from(["drop", "atom-pair", "add"]))
    if kind == "drop":
        atoms = scan_atoms(L)
        above = [x for x in L.sorted_covectors()
                 if not x.is_zero and x not in atoms]
        x = draw(st.sampled_from(above))
        return CovectorSet(L.ground, L.covectors - {x})
    if kind == "atom-pair":
        v = draw(st.sampled_from(sorted(scan_atoms(L), key=str)))
        return CovectorSet(L.ground, L.covectors - {v, -v})
    n = len(L.ground)
    added = draw(st.sets(
        st.text(alphabet="+-0", min_size=n, max_size=n).map(S),
        min_size=1, max_size=3,
    ))
    return CovectorSet(L.ground, L.covectors | added)


def _oracle_report(L: CovectorSet) -> AxiomReport:
    """The report with its L2 and L3 witnesses listed by the pairwise
    pass of oracles.py, and L0 and L1 read off the set."""
    l1 = tuple(x for x in L.sorted_covectors() if -x not in L)
    l2, l3 = pairwise_witnesses(L)
    return AxiomReport(
        ground=L.ground,
        l0_ok=L.zero in L,
        l1_ok=not l1,
        l2_ok=not l2,
        l3_ok=not l3,
        l1_witnesses=l1,
        l2_witnesses=l2,
        l3_witnesses=l3,
    )


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(_PERFBENCH))
    return workloads


def _refute_non_oms(seed: int) -> list:
    """The dropped-covector sets of the benchmark's `refute` workload."""
    import omtop

    workloads = _workloads()
    return [inst.covectors for inst in workloads.build("refute", omtop, seed)
            if inst.expected == workloads.NOT_OM]


def _refute_files(seed: int) -> list[tuple[CovectorSet, str]]:
    """The covector sets of the benchmark's `refute` workload and the
    files that set-up writes for them."""
    import types

    import omtop

    files = []

    def record(L):
        files.append((L, omtop.format_covector_file(L)))
        return files[-1][1]

    api = types.SimpleNamespace(**vars(omtop))
    api.format_covector_file = record
    _workloads().build("refute", api, seed)
    return files


class TestAxiomsAgainstScan:
    """Whole reports, witnesses and their order included, agree with
    the pairwise scan of the definitions in oracles.py, or on larger
    sets with the pairwise witness pass there."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(axiom_test_sets())
    def test_random_sign_vector_sets(self, L):
        assert verify_covector_axioms(L) == scan_axioms(L)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(mutated_oms())
    def test_mutated_oriented_matroids(self, L):
        assert verify_covector_axioms(L) == scan_axioms(L)

    def test_four_line_vertex_pair_fails_only_elimination(self, four_om):
        v = min(scan_atoms(four_om), key=str)
        L = CovectorSet(four_om.ground, four_om.covectors - {v, -v})
        rep = verify_covector_axioms(L)
        assert rep.l0_ok and rep.l1_ok and rep.l2_ok and not rep.l3_ok
        assert rep == scan_axioms(L)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(witness_sets())
    def test_broken_oriented_matroids(self, L):
        assert verify_covector_axioms(L) == _oracle_report(L)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refute_workload_non_oms(self, seed):
        sets = _refute_non_oms(seed)
        assert len(sets) == 3
        for L in sets:
            rep = verify_covector_axioms(L)
            assert not rep.l1_ok
            assert rep == _oracle_report(L)

    @pytest.mark.parametrize("n,d", [(5, 4), (8, 3)])
    def test_one_covector_dropped(self, n, d):
        L = _seeded_om((n, d, 0))
        x = random.Random(0).choice(
            [x for x in L.sorted_covectors() if not x.is_zero]
        )
        M = CovectorSet(L.ground, L.covectors - {x})
        rep = verify_covector_axioms(M)
        assert rep.l1_witnesses == (-x,)
        assert rep == _oracle_report(M)


@st.composite
def closed_sets(draw) -> CovectorSet:
    """A seeded OM with a pair +-v added, v any nonzero sign vector (a
    covector or not), then closed under composition: L0, L1 and L2 hold,
    and L3 often fails alone."""
    L = _seeded_om(draw(st.sampled_from(["triangle", "four-line", 0, 1, 2])))
    n = len(L.ground)
    v = draw(
        st.text(alphabet="+-0", min_size=n, max_size=n)
        .map(S)
        .filter(lambda v: not v.is_zero)
    )
    return CovectorSet(L.ground, _composition_closure(L.covectors | {v, -v}))


class TestCocircuitDecision:
    """The cocircuit decision only ever shortcuts to "L3 holds": where it
    declines, the equal-support loop decides L3, so whole reports agree
    with the oracles either way."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(closed_sets())
    def test_sets_closed_under_composition(self, L):
        rep = verify_covector_axioms(L)
        assert rep.l0_ok and rep.l1_ok and rep.l2_ok
        assert rep == (scan_axioms(L) if len(L) <= 60 else _oracle_report(L))
        if _cocircuit_decline(L) is None:
            assert rep.l3_ok

    def test_closed_sets_are_accepted_and_fail_elimination(self):
        quick = settings(
            derandomize=True, database=None, max_examples=200,
            phases=[Phase.generate],
        )
        accepted = find(
            closed_sets(), lambda L: _cocircuit_decline(L) is None,
            settings=quick,
        )
        failing = find(
            closed_sets(), lambda L: not verify_covector_axioms(L).l3_ok,
            settings=quick,
        )
        assert verify_covector_axioms(accepted).ok
        assert _cocircuit_decline(failing) is not None

    @pytest.mark.parametrize("check", ["incomparable", "modular", "composition"])
    def test_each_check_declines_first_on_its_set(self, declining_sets, check):
        L = declining_sets[check]
        rep = verify_covector_axioms(L)
        assert rep.l0_ok and rep.l1_ok and rep.l2_ok and not rep.l3_ok
        assert _cocircuit_decline(L) == check
        assert rep == scan_axioms(L)


def _check_l2_refinement(L: CovectorSet) -> None:
    """The whole report agrees with the pairwise oracle, and its L2
    witnesses with the restriction count of oracles.py; the missed-class
    step runs exactly when L2 fails."""
    import omtop.matroid as matroid

    real = matroid._missed_compositions
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(matroid, "_missed_compositions", counted):
        rep = verify_covector_axioms(L)
    assert rep == _oracle_report(L)
    assert rep.l2_witnesses == restriction_l2_witnesses(L)
    assert bool(calls) == (not rep.l2_ok)


class TestL2ByRefinement:
    """The L2 classes are refined from sign columns along the zero sets
    in lexicographic order; whole reports agree with the oracles on
    sets closed under composition, on the `refute` sets and on mutants
    that drop or add covectors."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(closed_sets())
    def test_sets_closed_under_composition(self, L):
        _check_l2_refinement(L)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(mutated_oms())
    def test_drop_and_add_mutants(self, L):
        _check_l2_refinement(L)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refute_workload_non_oms(self, seed):
        for L in _refute_non_oms(seed):
            _check_l2_refinement(L)

    @pytest.mark.parametrize("n,d,seed", [(5, 3, 0), (4, 3, 1)])
    def test_mutants_of_larger_oms(self, n, d, seed):
        """Sign vectors with zero sets of every size added to, and
        covectors dropped from, OMs with many zero sets sharing
        prefixes: each mutant fails L2 at many x."""
        L = _seeded_om((n, d, seed))
        rng = random.Random(seed)
        nonzero = [x for x in L.sorted_covectors() if not x.is_zero]
        k = len(L.ground)
        for zeros in range(k):
            while True:
                signs = [rng.choice("+-") for _ in range(k - zeros)]
                signs += ["0"] * zeros
                rng.shuffle(signs)
                v = S("".join(signs))
                if v not in L:
                    break
            x = rng.choice(nonzero)
            for M in (L.covectors | {v, -v}, L.covectors - {x}):
                _check_l2_refinement(CovectorSet(L.ground, M))


def _l2_indices(L: CovectorSet) -> list[tuple[int, int]]:
    """The L2 witness pairs of L as index pairs into its sorted order,
    from the restriction count of oracles.py."""
    index = {x: i for i, x in enumerate(L.sorted_covectors())}
    return [(index[x], index[y]) for x, y in restriction_l2_witnesses(L)]


def _check_elimination(L: CovectorSet) -> list:
    """The kernel's L3 witness list equals the equal-support oracle's."""
    import omtop.matroid as matroid

    l2 = _l2_indices(L)
    l3 = matroid._elimination_witnesses(L, l2)
    assert l3 == equal_support_elimination(L, l2)
    return l3


@st.composite
def ranked_mutants(draw) -> CovectorSet:
    """A seeded OM of rank 3, 4 or 5 with one covector or one negation
    pair dropped, or one sign vector, or one pair +-v, added."""
    L = _seeded_om(draw(st.sampled_from(
        [(4, 2, 0), (5, 2, 1), (4, 3, 0), (5, 3, 1), (5, 4, 0)]
    )))
    kind = draw(st.sampled_from(["drop", "drop-pair", "add", "add-pair"]))
    if kind.startswith("drop"):
        x = draw(st.sampled_from(
            [x for x in L.sorted_covectors() if not x.is_zero]
        ))
        return CovectorSet(
            L.ground, L.covectors - ({x} if kind == "drop" else {x, -x})
        )
    n = len(L.ground)
    v = draw(
        st.text(alphabet="+-0", min_size=n, max_size=n)
        .map(S)
        .filter(lambda v: v not in L)
    )
    return CovectorSet(
        L.ground, L.covectors | ({v} if kind == "add" else {v, -v})
    )


class TestEliminationByWalls:
    """Pairs of equal support are settled by walls and tested only at
    the coordinates that are walls of neither; the L3 witness list is
    the equal-support oracle's, order included."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_refute_workload_non_oms(self, seed):
        for L in _refute_non_oms(seed):
            _check_elimination(L)

    def test_tope_dropped_at_scale(self):
        L = _seeded_om((7, 4, 0))
        M = CovectorSet(L.ground, L.covectors - {S("++++++++")})
        _check_elimination(M)

    @pytest.mark.parametrize("n,d", [(6, 4), (8, 3), (9, 2)])
    def test_one_covector_dropped(self, n, d):
        L = _seeded_om((n, d, 0))
        x = random.Random(0).choice(
            [x for x in L.sorted_covectors() if not x.is_zero]
        )
        assert _check_elimination(CovectorSet(L.ground, L.covectors - {x}))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(ranked_mutants())
    def test_drop_and_add_mutants(self, L):
        _check_elimination(L)

    @pytest.mark.parametrize("key", [(4, 2, 0), (5, 3, 1), (5, 4, 0)])
    def test_dropped_wall_is_never_hidden(self, key):
        """With w = x with e zeroed dropped, and -w with it, no covector
        is zero at e and equal to x off e, so the pair of w's two lifts
        across e, which have e as a wall of neither now, is a witness at
        e, and so is the pair of their negations."""
        L = _seeded_om(key)
        rng = random.Random(0)
        walls = [(w, e) for w in L.sorted_covectors() if not w.is_zero
                 for e in sorted(w.zero_set())]
        for w, e in rng.sample(walls, 4):
            lifts = [
                SignVector(w.n, w._pos | (1 << e), w._neg),
                SignVector(w.n, w._pos, w._neg | (1 << e)),
            ]
            assert all(v in L for v in lifts)
            M = CovectorSet(L.ground, L.covectors - {w, -w})
            rep = verify_covector_axioms(M)
            for x, y in (lifts, [-v for v in lifts]):
                x, y = sorted((x, y), key=str)
                assert (x, y, e) in rep.l3_witnesses, (str(w), e)
            assert rep.l3_witnesses == _oracle_report(M).l3_witnesses

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_direct_check_per_key(self, seed, monkeypatch):
        """A pair with a missing composition is checked once per key
        (x o y off the separation set T, T): the answer depends on
        nothing else."""
        import omtop.matroid as matroid

        def key(x, y):
            sep = (x._pos & y._neg) | (x._neg & y._pos)
            off = set(range(x.n)) - set(_bits(sep))
            return x.compose(y).restrict(off), sep

        real = matroid._unmet_eliminations
        keys = []

        def counted(columns, x, y):
            keys.append(key(x, y))
            return real(columns, x, y)

        monkeypatch.setattr(matroid, "_unmet_eliminations", counted)
        pairs = checks = 0
        for L in _refute_non_oms(seed):
            keys.clear()
            l2 = {frozenset(p) for p in restriction_l2_witnesses(L)}
            _check_elimination(L)
            assert len(keys) == len(set(keys))
            assert set(keys) == {key(*sorted(p, key=str)) for p in l2}
            pairs += len(l2)
            checks += len(keys)
        assert checks < pairs


class TestRank:
    def test_line_heights(self, line_om):
        assert line_om.rank() == 2
        P = line_om.order()
        assert P.height(S("000")) == 0
        assert P.height(S("0-+")) == 1
        assert P.height(S("+-+")) == 2
        assert P.height(S("++0")) == 1

    def test_membership_error(self, line_om):
        with pytest.raises(MembershipError):
            line_om.order().height(S("0-0"))

    def test_triangle_rank(self, tri_om, four_om):
        assert tri_om.rank() == 3
        assert four_om.rank() == 3


class TestUniformity:
    def test_rank_one(self):
        rep = is_uniform(cs(["e"], ["0", "+", "-"]))
        assert rep.uniform and rep.rank == 1

    def test_triangle_uniform(self, tri_om):
        rep = is_uniform(tri_om)
        assert rep.uniform
        assert rep.rank == 3
        assert rep.zero_set_witness is None and rep.rank_witness is None

    def test_four_line_not_uniform(self, four_om):
        rep = is_uniform(four_om)
        assert not rep.uniform
        assert not bool(rep)
        # the two parallel lines s, t and no third element: no covector
        # vanishes on exactly that pair
        assert rep.zero_set_witness == frozenset({2, 3})
        assert rep.rank_witness is not None
        x = rep.rank_witness
        r = four_om.rank()
        assert four_om.order().height(x) != r - len(x.zero_set())

    def test_witness_json_labels(self, four_om):
        js = is_uniform(four_om).to_json(four_om.ground)
        assert js["zero_set_witness"] == ["s", "t"]


class TestTopesAtoms:
    def test_line_topes_and_atoms(self, line_om):
        ts = topes(line_om)
        assert len(ts) == 6
        assert all(len(t.zero_set()) == 0 for t in ts)
        ats = scan_atoms(line_om)
        assert len(ats) == 6
        assert S("0-+") in ats and S("++0") in ats
        # 13 = zero + atoms + topes for this rank-2 set
        assert 1 + len(ats) + len(ts) == len(line_om)

    def test_triangle_topes(self, tri_om):
        ts = topes(tri_om)
        # 7 affine regions, doubled by central symmetry
        assert len(ts) == 14
        assert sum(1 for t in ts if t.sign(3) is Sign.PLUS) == 7


class TestMinors:
    def test_contract_g_of_line(self, line_om):
        M = contract(line_om, ["g"])
        assert M.ground.labels == ("h1", "h2")
        assert M.covectors == {S("00"), S("++"), S("--")}
        assert verify_covector_axioms(M).ok

    def test_delete_of_line(self, line_om):
        D = delete_minor(line_om, ["h2"])
        assert D.ground.labels == ("h1", "g")
        # forms x and t are independent: the full sign cube
        assert len(D) == 9
        assert verify_covector_axioms(D).ok

    def test_minors_commute_on_disjoint_labels(self, tri_om):
        a = contract(delete_minor(tri_om, ["x"]), ["y"])
        b = delete_minor(contract(tri_om, ["y"]), ["x"])
        assert a == b

    def test_minor_axioms_hold(self, tri_om, four_om):
        for L in (tri_om, four_om):
            for lab in L.ground.labels:
                assert verify_covector_axioms(contract(L, [lab])).ok
                assert verify_covector_axioms(delete_minor(L, [lab])).ok

    def test_unknown_label(self, line_om):
        with pytest.raises(DomainError):
            contract(line_om, ["nope"])


class TestTopePoset:
    def test_base_is_unique_minimum(self, line_om):
        B = S("--+")
        P = tope_poset(line_om, B)
        assert all(P.less_equal(B, t) for t in P.topes)
        assert sum(1 for t in P.topes if P.less_equal(t, B)) == 1

    def test_negative_base_is_maximum(self, line_om):
        B = S("--+")
        P = tope_poset(line_om, B)
        assert all(P.less_equal(t, -B) for t in P.topes)

    def test_non_tope_rejected(self, line_om):
        with pytest.raises(MembershipError):
            tope_poset(line_om, S("0-+"))

    def test_linear_extension_is_deterministic_order_ideal_prefix(
        self, tri_om
    ):
        B = min(topes(tri_om), key=str)
        P = tope_poset(tri_om, B)
        ext = P.linear_extension()
        assert ext == P.linear_extension()
        assert sorted(map(str, ext)) == sorted(map(str, P.topes))
        assert ext[0] == B
        for k in range(1, len(ext) + 1):
            assert P.order_ideal(ext[:k])

    def test_random_extension_respects_order(self, tri_om):
        B = min(topes(tri_om), key=str)
        P = tope_poset(tri_om, B)
        rng = random.Random(5)
        ext = P.random_linear_extension(rng)
        pos = {t: i for i, t in enumerate(ext)}
        for a in P.topes:
            for b in P.topes:
                if P.less_equal(a, b):
                    assert pos[a] <= pos[b]

    def test_interval_invariance(self, line_om, tri_om):
        # the interval [T, T'] carries the same order whether topes are
        # measured from B or from T itself
        for L in (line_om, tri_om):
            ts = sorted(topes(L), key=str)
            B = ts[0]
            PB = tope_poset(L, B)
            for T in ts:
                PT = tope_poset(L, T)
                for T2 in ts:
                    if not PB.less_equal(T, T2):
                        continue
                    ival_B = [
                        t
                        for t in ts
                        if PB.less_equal(T, t) and PB.less_equal(t, T2)
                    ]
                    ival_T = [
                        t
                        for t in ts
                        if PT.less_equal(T, t) and PT.less_equal(t, T2)
                    ]
                    assert ival_B == ival_T
                    for a in ival_B:
                        for b in ival_B:
                            assert PB.less_equal(a, b) == PT.less_equal(a, b)


class TestCovectorFile:
    GOOD = "\n".join(
        [
            "# a one-point arrangement",
            "e g",
            "g g",
            "00",
            "+0  # unused trailing comment",
            "-0",
            "0+",
            "++",
            "-+",
            "0-",
            "+-",
            "--",
        ]
    )

    def test_round_trip(self):
        L = parse_covector_file(self.GOOD, source="good.cov")
        assert len(L) == 9
        assert L.ground.labels == ("e", "g")
        assert L.ground.g == "g"
        text = format_covector_file(L)
        again = parse_covector_file(text)
        assert again == L

    def test_no_g_line(self):
        L = parse_covector_file("a b\n00\n+-\n")
        assert L.ground.g is None
        assert len(L) == 2

    def test_duplicate_line_rejected(self):
        with pytest.raises(InputFormatError) as ei:
            parse_covector_file("a\n+\n+\n", source="f.cov")
        assert "duplicate" in str(ei.value)
        assert "f.cov" in str(ei.value)

    def test_bad_sign_string(self):
        with pytest.raises(InputFormatError):
            parse_covector_file("a b\n+x\n")

    def test_wrong_length(self):
        with pytest.raises(InputFormatError):
            parse_covector_file("a b\n+\n")

    def test_unknown_g(self):
        with pytest.raises(InputFormatError):
            parse_covector_file("a b\ng c\n00\n")

    def test_g_line_must_be_second(self):
        with pytest.raises(InputFormatError):
            parse_covector_file("a b\n00\ng a\n")

    def test_duplicate_labels(self):
        with pytest.raises(InputFormatError):
            parse_covector_file("a a\n00\n")

    def test_empty_file(self):
        with pytest.raises(InputFormatError):
            parse_covector_file("# nothing\n")


def _parsed(parse, text: str):
    """What parse makes of text: the set, or the error's text and line."""
    try:
        L = parse(text, source="f.cov")
    except InputFormatError as exc:
        return str(exc), exc.line
    return L.ground, L.covectors


class TestBulkCovectorFile:
    """`parse_covector_file` and `format_covector_file` against the
    parser and the writer as they ran one line and one coordinate at a
    time."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_refute_files(self, seed):
        files = _refute_files(seed)
        assert len(files) == 8
        for L, text in files:
            assert text == format_covector_file_by_coordinates(L)
            assert _parsed(parse_covector_file, text) == (
                _parsed(parse_covector_file_by_lines, text)
            )
            assert parse_covector_file(text) == L

    def test_realize_output(self, tmp_path, capsys):
        from omtop.cli import main
        from omtop.realization import format_arrangement

        for n, d, seed in [(6, 4, 0), (11, 2, 0), (5, 1, 3)]:
            arr = tmp_path / "a.arr"
            arr.write_text(format_arrangement(generate_arrangement(n, d, seed)))
            assert main(["realize", str(arr)]) == 0
            text = capsys.readouterr().out
            assert _parsed(parse_covector_file, text) == (
                _parsed(parse_covector_file_by_lines, text)
            )

    # each bad file, and the line its error names (None: no line)
    BAD = [
        ("a b\n00\n+x\n", 3),
        ("a b\n00\n+0 -0\n", 3),
        ("a b\n00\n+\n", 3),
        ("a b\n00\n+00\n", 3),
        ("a b\n00\n+-\n00\n", 4),
        ("a b\n00\n+-  # again\n  +-\n", 4),
        ("a b\ng c\n00\n", 2),
        ("a b\ng a b\n00\n", 2),
        ("a b\ng\n", 2),
        ("a b\n00\ng a\n", 3),
        ("a b\ng a\ng b\n", 3),
        ("a a\n00\n", None),
        ("# nothing\n\n", None),
        ("", None),
        ("# labels\r\na b\r\n\r\n00\r\n+x\r\n", 5),
        ("a b # c\n# c\n\n+-\n-+\n0\n", 6),
        ("a b\n+-\n+\u00b1\n", 3),
    ]

    @pytest.mark.parametrize("text,line", BAD)
    def test_errors_keep_message_and_line(self, text, line):
        got = _parsed(parse_covector_file, text)
        assert got == _parsed(parse_covector_file_by_lines, text)
        assert got[1] == line and got[0].startswith("f.cov:")

    GOOD = [
        "a b\n",
        "a b\ng b\n",
        "a b\r\ng b\r\n00\r\n+-\r\n",
        "# head\n\n  a   b  # labels\n\n g  a # g\n00\n\t+- \n# end",
        "a b\n00\n+-\n#\n",
        "a\n+\n-\n0",
        "g a\ng g\n00\n",
    ]

    @pytest.mark.parametrize("text", GOOD)
    def test_comments_blanks_and_crlf(self, text):
        got = _parsed(parse_covector_file, text)
        assert got == _parsed(parse_covector_file_by_lines, text)
        assert isinstance(got[0], GroundSet)
