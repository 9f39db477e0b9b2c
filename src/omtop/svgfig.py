"""SVG pictures of plane arrangements with the bounded complex marked.

Geometry stays exact (Fraction intersections, sign evaluations) right up
to the final coordinate formatting; floats appear only in the emitted
drawing, never in a decision.  Bounded 2-faces are shaded, bounded edges
drawn heavy, bounded vertices dotted — together they are exactly the
bounded complex of the arrangement, so the picture is a visual readout
of what the combinatorial pipeline certifies.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .realization import (
    Arrangement,
    affine_face_dim,
    enumerate_affine_faces,
    face_bounded,
)
from .signvec import Sign, SignVector

_LINE = '<line x1="{:.2f}" y1="{:.2f}" x2="{:.2f}" y2="{:.2f}" stroke="{}" stroke-width="{}"/>'
_POLY = '<polygon points="{}" fill="#f5c16c" fill-opacity="0.55" stroke="none"/>'
_DOT = '<circle cx="{:.2f}" cy="{:.2f}" r="4" fill="#1f3a93"/>'
_TEXT = '<text x="{:.2f}" y="{:.2f}" font-size="13" font-family="monospace" fill="#333">{}</text>'


def _intersection(A: Arrangement, i: int, j: int):
    (a11, a12), (a21, a22) = A.normals[i], A.normals[j]
    det = a11 * a22 - a12 * a21
    if det == 0:
        return None
    b1, b2 = A.offsets[i], A.offsets[j]
    return (
        Fraction(b1 * a22 - b2 * a12, det),
        Fraction(a11 * b2 - a21 * b1, det),
    )


def _sign_at(A: Arrangement, point) -> SignVector:
    return SignVector.from_signs(
        Sign.of_number(
            sum(c * p for c, p in zip(normal, point)) - offset
        )
        for normal, offset in zip(A.normals, A.offsets)
    )


def _vertex_map(A: Arrangement) -> dict[SignVector, tuple[Fraction, Fraction]]:
    out: dict[SignVector, tuple[Fraction, Fraction]] = {}
    for i in range(A.n):
        for j in range(i + 1, A.n):
            pt = _intersection(A, i, j)
            if pt is not None:
                out[_sign_at(A, pt)] = pt
    return out


def default_bounds(A: Arrangement) -> tuple[float, float, float, float]:
    """Bounding box of all arrangement vertices plus a 20% margin; the
    unit box around the origin when there are no vertices."""
    pts = list(_vertex_map(A).values())
    if not pts:
        return (-1.0, -1.0, 1.0, 1.0)
    xs = [float(p[0]) for p in pts]
    ys = [float(p[1]) for p in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    padx = 0.2 * (x1 - x0) or 1.0
    pady = 0.2 * (y1 - y0) or 1.0
    return (x0 - padx, y0 - pady, x1 + padx, y1 + pady)


def _clip_line(normal, offset, box):
    """Endpoints of a line a.x = b clipped to the box, or None."""
    x0, y0, x1, y1 = box
    a1, a2 = float(normal[0]), float(normal[1])
    b = float(offset)
    eps = 1e-9
    pts = []
    if abs(a2) > eps:
        for x in (x0, x1):
            y = (b - a1 * x) / a2
            if y0 - eps <= y <= y1 + eps:
                pts.append((x, y))
    if abs(a1) > eps:
        for y in (y0, y1):
            x = (b - a2 * y) / a1
            if x0 - eps <= x <= x1 + eps:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-7 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def render_arrangement_svg(
    A: Arrangement,
    bounds: tuple[float, float, float, float] | None = None,
    width: int = 640,
) -> str:
    """An SVG drawing of a dim-2 arrangement: hyperplane lines, shaded
    bounded 2-faces, and the bounded 1- and 0-faces overlaid."""
    if A.dim != 2:
        raise DomainError(
            f"only dim-2 arrangements can be drawn, got dim {A.dim}"
        )
    # first, so an arrangement past the covector cap exits before the
    # vertex map, which costs n^3 rational operations
    faces = enumerate_affine_faces(A)
    box = tuple(float(v) for v in bounds) if bounds is not None else default_bounds(A)
    x0, y0, x1, y1 = box
    if not (x1 > x0 and y1 > y0):
        raise DomainError(f"empty drawing bounds {box}")
    pad = 28.0
    scale = (width - 2 * pad) / (x1 - x0)
    height = int(round((y1 - y0) * scale + 2 * pad))

    def T(p):
        return (
            pad + (float(p[0]) - x0) * scale,
            pad + (y1 - float(p[1])) * scale,
        )

    vmap = _vertex_map(A)
    bounded = [P for P in faces if face_bounded(A, P)]
    by_dim = {d: [P for P in bounded if affine_face_dim(A, P) == d] for d in (0, 1, 2)}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for P in by_dim[2]:
        corners = [vmap[z] for z in sorted(vmap, key=str) if z.below(P)]
        cx = sum(float(p[0]) for p in corners) / len(corners)
        cy = sum(float(p[1]) for p in corners) / len(corners)
        corners.sort(key=lambda p: math.atan2(float(p[1]) - cy, float(p[0]) - cx))
        pts = " ".join("{:.2f},{:.2f}".format(*T(p)) for p in corners)
        parts.append(_POLY.format(pts))
    for i, label in enumerate(A.labels):
        seg = _clip_line(A.normals[i], A.offsets[i], box)
        if seg is None:
            continue
        (sx1, sy1), (sx2, sy2) = T(seg[0]), T(seg[1])
        parts.append(_LINE.format(sx1, sy1, sx2, sy2, "#888", 1.5))
        tx = sx1 + 0.06 * (sx2 - sx1)
        ty = sy1 + 0.06 * (sy2 - sy1) - 5
        parts.append(_TEXT.format(tx, ty, label))
    for P in by_dim[1]:
        ends = [vmap[z] for z in sorted(vmap, key=str) if z.below(P)]
        if len(ends) == 2:
            (sx1, sy1), (sx2, sy2) = T(ends[0]), T(ends[1])
            parts.append(_LINE.format(sx1, sy1, sx2, sy2, "#b03a2e", 3))
    for P in by_dim[0]:
        parts.append(_DOT.format(*T(vmap[P])))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
