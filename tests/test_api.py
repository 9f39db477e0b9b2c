"""The public API: the names `omtop/__init__.py` imports are pinned, so
an export added or removed has to edit this list, and is recorded as an
API change in the README and CHANGES.md."""

import ast
from pathlib import Path

import omtop

PUBLIC = [
    "AffineOM", "Arrangement", "AxiomReport", "BoundedComplex",
    "CovectorSet", "DimensionError", "DomainError", "GroundSet",
    "InputFormatError", "MembershipError", "OmtopError", "Poset",
    "PreconditionError", "ResourceExhausted", "Sign", "SignVector", "Star",
    "UniformityReport", "VectorConfiguration", "VerificationReport",
    "boundary_equivalence", "bounded_complex", "bounded_face_census",
    "check_bijection", "classify_links", "cube_isomorphism", "delete_minor",
    "enumerate_covectors", "face_bounded", "find_collapse",
    "format_arrangement", "format_covector_file", "generate_arrangement",
    "homogenize", "homology", "induced_shelling_of_CX", "is_essential",
    "is_uniform", "link_decomposition", "parse_arrangement_file",
    "parse_covector_file", "render_arrangement_svg", "restrict_to_support",
    "shelling_of_DX", "verify_arrangement", "verify_collapse",
    "verify_covector_axioms", "verify_covectors",
]


def test_exported_names_are_pinned():
    tree = ast.parse(Path(omtop.__file__).read_text())
    imported = sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    assert imported == PUBLIC
    assert all(hasattr(omtop, name) for name in PUBLIC)
