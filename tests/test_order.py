"""The covector order: everything `CovectorSet.order` serves agrees with
the pairwise `SignVector.below` scans of oracles.py.

The sets compared are Hypothesis-drawn sets of sign vectors (with and
without the zero vector, almost never oriented matroids), the three
canonical arrangements and a few seeded uniform ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtop.bounded import AffineOM, Star, cube_isomorphism, link_decomposition
from omtop.errors import PreconditionError
from omtop.generate import generate_arrangement
from omtop.matroid import CovectorSet, atoms, topes
from omtop.realization import enumerate_covectors, homogenize
from omtop.signvec import GroundSet, SignVector
from omtop.topology import _chain_counts

from oracles import (
    down_set,
    heights_by_max,
    scan_atoms,
    scan_bounded_complex,
    scan_heights,
    scan_topes,
    scan_upper,
    order_complex,
    transposed_up_sets,
)


@st.composite
def sign_vector_sets(draw) -> CovectorSet:
    n = draw(st.integers(2, 5))
    strings = draw(
        st.sets(st.text(alphabet="+-0", min_size=n, max_size=n), max_size=30)
    )
    if draw(st.booleans()):
        strings.add("0" * n)
    labels = [f"e{i}" for i in range(n - 1)] + ["g"]
    return CovectorSet(
        GroundSet(labels, g="g"), [SignVector.from_string(s) for s in strings]
    )


def _outcome(f):
    """f's value, or the type of the exception it raises."""
    try:
        return f()
    except Exception as exc:  # the oracle and the library must fail alike
        return type(exc)


def _bounded_from_order(L):
    bc = AffineOM(L).bounded_complex()
    P = bc.as_poset()
    return (
        bc.covectors,
        bc.maximal(),
        bc.f_vector,
        bc.dim,
        bc.pure,
        bc.support,
        {(a, b) for a in P for b in P if P.less_equal(a, b)},
    )


def _bounded_from_scans(L):
    AffineOM(L)  # the same preconditions on g
    w = scan_bounded_complex(L, L.ground.g_index)
    keys = ("covectors", "maximal", "f_vector", "dim", "pure", "support")
    return tuple(w[k] for k in keys) + (w["relation"],)


def check_order(L: CovectorSet) -> None:
    assert L.heights() == scan_heights(L)
    assert topes(L) == scan_topes(L)
    assert atoms(L) == scan_atoms(L)
    P = L.order()
    assert P.elements == L.sorted_covectors()
    # the up-sets built from sign columns are the down-sets transposed
    assert P._up == transposed_up_sets(P._down)
    assert P._height_list() == heights_by_max(P)
    # the relation built from sign columns is exactly pairwise `below`
    assert {(a, b) for a in P for b in P if P.less_equal(a, b)} == {
        (a, b) for a in L for b in L if a.below(b)
    }
    for X in L:
        assert list(P.up_set(X)) == scan_upper(L, X)
        assert list(down_set(P, X)) == [y for y in L if y.below(X)]
    assert _outcome(lambda: _bounded_from_order(L)) == _outcome(
        lambda: _bounded_from_scans(L)
    )


class TestOrderAgainstScans:
    @settings(derandomize=True, deadline=None)
    @given(sign_vector_sets())
    def test_random_sign_vector_sets(self, L):
        check_order(L)

    def test_canonical_arrangements(self, line_om, tri_om, four_om):
        for L in (line_om, tri_om, four_om):
            check_order(L)

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (5, 2, 1), (4, 3, 0)])
    def test_generated_arrangements(self, n, d, seed):
        L = enumerate_covectors(homogenize(generate_arrangement(n, d, seed=seed)))
        check_order(L)


class TestChainCounts:
    """`verify` reads the order complex's f-vector off the order by
    counting chains; the order complex itself is the oracle."""

    @settings(derandomize=True, deadline=None)
    @given(sign_vector_sets())
    def test_random_sign_vector_sets(self, L):
        P = L.order()
        assert _chain_counts(P) == order_complex(P).f_vector()

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (4, 3, 0)])
    def test_bounded_complexes(self, n, d, seed):
        L = enumerate_covectors(homogenize(generate_arrangement(n, d, seed=seed)))
        P = AffineOM(L).bounded_complex().as_poset()
        assert _chain_counts(P) == order_complex(P).f_vector()


class TestUpperIntervals:
    """The L_{>=X} readers agree with one scan of L per bounded cell."""

    @pytest.mark.parametrize("n,d,seed", [(4, 2, 0), (4, 3, 0)])
    def test_star_cube_and_link_case(self, n, d, seed):
        L = enumerate_covectors(homogenize(generate_arrangement(n, d, seed=seed)))
        M = AffineOM(L)
        bc = M.bounded_complex()
        ts = scan_topes(L)
        for X in bc:
            up = scan_upper(L, X)
            assert list(cube_isomorphism(L, X).pairs) == [
                (y, y.delete(sorted(X.support()))) for y in up
            ]
            ld = link_decomposition(M, X)
            if len(ld.upper):
                full = len(ld.upper) == len(up) - 1
                assert (ld.case == "upper_full") == full
            try:
                star = Star(M, X)
            except PreconditionError:
                continue
            assert star.C_X == tuple(
                t for t in up if t in ts and t != X and t not in bc
            )
