"""Walkthrough on the two smallest interesting inputs.

Two points on a line bound a segment; three generic lines in the plane
bound a triangle.  This script realizes both, prints their covectors,
extracts the bounded complex, and certifies that it is a ball: on its
own cells, it has the homology of a point and collapses to a vertex.

Run:  python3 demos/01_line_and_triangle.py
"""

from fractions import Fraction

from omtop import (
    AffineOM,
    Arrangement,
    bounded_complex,
    enumerate_covectors,
    find_collapse,
    homogenize,
    homology,
    verify_collapse,
    verify_covector_axioms,
)


def show(title, A):
    print(f"--- {title} " + "-" * (50 - len(title)))
    L = enumerate_covectors(homogenize(A))
    print(f"ground set: {' '.join(L.ground.labels)}   (g = {L.ground.g})")
    print(f"covectors:  {len(L)}")
    rep = verify_covector_axioms(L)
    print(f"axioms:     {'ok' if rep.ok else 'FAIL'}")

    bc = bounded_complex(AffineOM(L))
    print(f"bounded complex: f-vector {tuple(bc.f_vector)}, "
          f"dim {bc.dim}, euler {bc.euler}, pure {bc.pure}")
    for x in sorted(bc, key=str):
        print(f"    {x}  (dim {bc.face_dim(x)})")

    P = bc.as_poset()  # the cells, ordered by inclusion
    H = homology(P)
    print(f"homology of the cells: betti {H.betti}, ball {H.is_ball()}")
    col = find_collapse(P)
    assert col.collapsed and verify_collapse(P, col.certificate)
    print(f"collapse: {len(col.certificate.steps)} elementary collapses "
          f"of cells down to the vertex {col.certificate.terminal}, "
          f"certificate replays\n")


segment = Arrangement(
    dim=1,
    labels=("h1", "h2"),
    normals=((Fraction(1),), (Fraction(1),)),
    offsets=(Fraction(0), Fraction(1)),
)
show("the segment between x=0 and x=1", segment)

triangle = Arrangement(
    dim=2,
    labels=("x", "y", "s"),
    normals=((Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(1)),
             (Fraction(1), Fraction(1))),
    offsets=(Fraction(0), Fraction(0), Fraction(1)),
)
show("the triangle x >= 0, y >= 0, x + y <= 1", triangle)
