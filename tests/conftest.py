"""Shared fixtures: the three canonical arrangements and their covector
sets, enumerated once per session."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from omtop.matroid import CovectorSet
from omtop.realization import Arrangement, enumerate_covectors, homogenize


def corrupt_cell(M, X, cx=None, dx=None, put=setattr):
    """Corrupt X's cell record in the AffineOM M: its C_X mask, with
    r(C_X) read again, and its D_X mask, each when given.  The C_X and
    D_X tuples are cleared, so every check and every oracle reads the
    corrupted masks; `put` is `monkeypatch.setattr` to undo it all."""
    from omtop.bounded import _image

    cell = M._cell(X)
    put(cell, "C_X", None)
    put(cell, "D_X", None)
    if cx is not None:
        put(cell, "cx", cx)
        put(cell, "image", _image(M._star_om()._tope_table(), cx))
    if dx is not None:
        put(cell, "dx", dx)
    return cell


def mk_arrangement(dim, rows) -> Arrangement:
    """rows: (label, normal tuple, offset) with int/Fraction entries."""
    labels = tuple(r[0] for r in rows)
    normals = tuple(tuple(Fraction(c) for c in r[1]) for r in rows)
    offsets = tuple(Fraction(r[2]) for r in rows)
    return Arrangement(dim=dim, labels=labels, normals=normals, offsets=offsets)


@st.composite
def integer_forms(draw, nvars=st.integers(1, 5), n=st.integers(1, 8)):
    """Rows of small integers in general or special position: random,
    or with a repeated row, a parallel (scaled) row or a zero row, or
    spanning fewer dimensions than there are columns, or all through
    one kernel vector (concurrent hyperplanes)."""
    k, m = draw(nvars), draw(n)
    kind = draw(st.sampled_from(
        ("random", "repeated", "parallel", "zero", "deficient", "concurrent")
    ))
    row = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    if kind == "deficient":
        base = draw(st.lists(row, min_size=1, max_size=max(1, k - 1)))
        coeffs = draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=len(base),
                     max_size=len(base)),
            min_size=m, max_size=m,
        ))
        forms = [
            [sum(c * b[j] for c, b in zip(cs, base)) for j in range(k)]
            for cs in coeffs
        ]
    else:
        forms = draw(st.lists(row, min_size=m, max_size=m))
    a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if kind == "repeated":
        forms[b] = list(forms[a])
    elif kind == "parallel":
        scale = draw(st.sampled_from((-3, -2, -1, 2, 3)))
        forms[b] = [scale * c for c in forms[a]]
    elif kind == "zero":
        forms[a] = [0] * k
    elif kind == "concurrent":
        # every row orthogonal to p = (p_0, ..., p_{k-2}, 1)
        p = draw(st.lists(st.integers(-3, 3), min_size=k - 1,
                          max_size=k - 1))
        for f in forms:
            f[-1] = -sum(c * q for c, q in zip(f, p))
    return tuple(tuple(f) for f in forms)


# the segment between x=0 and x=1 on the line
LINE_ROWS = [("h1", (1,), 0), ("h2", (1,), 1)]
# the closed triangle cut out by x=0, y=0, x+y=1
TRIANGLE_ROWS = [("x", (1, 0), 0), ("y", (0, 1), 0), ("s", (1, 1), 1)]
# two triangles joined at the origin: x=0, y=0, x+y=1, x+y=-1
FOURLINE_ROWS = [
    ("x", (1, 0), 0),
    ("y", (0, 1), 0),
    ("s", (1, 1), 1),
    ("t", (1, 1), -1),
]


@pytest.fixture(scope="session")
def line_arr() -> Arrangement:
    return mk_arrangement(1, LINE_ROWS)


@pytest.fixture(scope="session")
def tri_arr() -> Arrangement:
    return mk_arrangement(2, TRIANGLE_ROWS)


@pytest.fixture(scope="session")
def four_arr() -> Arrangement:
    return mk_arrangement(2, FOURLINE_ROWS)


@pytest.fixture(scope="session")
def line_om(line_arr) -> CovectorSet:
    return enumerate_covectors(homogenize(line_arr))


@pytest.fixture(scope="session")
def tri_om(tri_arr) -> CovectorSet:
    return enumerate_covectors(homogenize(tri_arr))


@pytest.fixture(scope="session")
def four_om(four_arr) -> CovectorSet:
    return enumerate_covectors(homogenize(four_arr))


@pytest.fixture(scope="session")
def declining_sets(four_om) -> dict:
    """One set for each check of the cocircuit decision, keyed by the
    name `_cocircuit_decline` returns, with that check the first to
    decline.  Each satisfies L0, L1 and L2 and fails L3."""
    from omtop.signvec import GroundSet, SignVector
    from oracles import scan_atoms

    def closed(labels, strings):
        return CovectorSet(
            GroundSet(labels), [SignVector.from_string(s) for s in strings]
        )

    v = min(scan_atoms(four_om), key=str)
    return {
        # the atoms are +-(+-0) and +-(+++): one support inside the other
        "incomparable": closed(
            ["a", "b", "c"],
            ["000", "+-0", "-+0", "+++", "---", "+-+", "-+-", "+--", "-++"],
        ),
        # the four-line vertex pair +-(+-000) dropped: its neighbours on
        # the line at infinity g are a modular pair whose elimination at
        # s lands on the dropped vertex
        "modular": CovectorSet(four_om.ground, four_om.covectors - {v, -v}),
        # the atoms are +-(+0) alone, and ++ is not their composition
        "composition": closed(
            ["a", "b"], ["00", "+0", "-0", "++", "--", "+-", "-+"]
        ),
    }
