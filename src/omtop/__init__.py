"""omtop: exact combinatorics for affine oriented matroids.

The package verifies, on concrete instances, the constructive steps of
the proof that the bounded complex of a uniform affine oriented matroid
is a piecewise-linear ball: covector axioms, tope posets and their
shellings, bounded-complex extraction, and collapse certificates and
integral homology on the cells of the bounded complex.
"""

__version__ = "0.1.0"

from .bounded import (  # noqa: E402
    AffineOM,
    BoundedComplex,
    Star,
    bounded_complex,
    check_bijection,
    boundary_equivalence,
    cube_isomorphism,
    induced_shelling_of_CX,
    link_decomposition,
    restrict_to_support,
    shelling_of_DX,
)
from .errors import (  # noqa: E402
    DimensionError,
    DomainError,
    InputFormatError,
    MembershipError,
    OmtopError,
    PreconditionError,
    ResourceExhausted,
)
from .matroid import (  # noqa: E402
    AxiomReport,
    CovectorSet,
    UniformityReport,
    delete_minor,
    format_covector_file,
    is_uniform,
    parse_covector_file,
    verify_covector_axioms,
)
from .realization import (  # noqa: E402
    Arrangement,
    VectorConfiguration,
    bounded_face_census,
    enumerate_covectors,
    face_bounded,
    format_arrangement,
    homogenize,
    is_essential,
    parse_arrangement_file,
)
from .signvec import GroundSet, Sign, SignVector  # noqa: E402
from .topology import (  # noqa: E402
    Poset,
    classify_links,
    find_collapse,
    homology,
    verify_collapse,
)
from .verify import VerificationReport, verify_arrangement, verify_covectors  # noqa: E402
from .generate import generate_arrangement  # noqa: E402
from .svgfig import render_arrangement_svg  # noqa: E402
