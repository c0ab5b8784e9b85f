"""Graph Fourier transform on directed graphs via the in-degree Laplacian.

The pipeline: build a weighted digraph, form L = D_in - W, decompose
L = V J V^{-1} (Jordan blocks when the eigenvectors do not span), expand
signals in the columns of V, and rank basis vectors by |lambda|, which
measures their total variation under the shift S = I - L. Polynomial
filters in L are exactly the shift-invariant operators when eigenvalues
are simple enough.
"""

from .errors import (
    DgftError,
    DimensionMismatchError,
    DuplicateEdgeError,
    EmptyTapsError,
    GraphSizeError,
    IllConditionedBasisWarning,
    InvalidValueError,
    NoConvergenceError,
    NodeIndexError,
    NonSquareError,
    ParseError,
    ReconstructionError,
    SelfLoopError,
    SingularMatrixError,
)
from .filters import (
    EigenvalueMultiplicity,
    MultiplicityReport,
    ShiftInvariance,
    apply_spectral_domain,
    apply_vertex_domain,
    check_lsi_preconditions,
    is_shift_invariant,
    materialize,
)
from .graph import (
    DirectedLaplacian,
    Graph,
    GraphSignal,
    build_graph,
    demo_graph,
    directed_laplacian,
    in_degree_matrix,
    out_degree_vector,
    ring_graph,
)
from .linalg import (
    JordanBlock,
    SpectralDecomposition,
    cluster_eigenvalues,
    jordan_decompose,
    matrix_polynomial_apply,
)
from .spectral import (
    FrequencyOrdering,
    Spectrum,
    as_laplacian,
    decompose,
    gft,
    igft,
    order_frequencies,
    quadratic_form,
    shift,
    shift_operator,
    spectrum,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "DgftError",
    "DimensionMismatchError",
    "DuplicateEdgeError",
    "EmptyTapsError",
    "GraphSizeError",
    "IllConditionedBasisWarning",
    "InvalidValueError",
    "NoConvergenceError",
    "NodeIndexError",
    "NonSquareError",
    "ParseError",
    "ReconstructionError",
    "SelfLoopError",
    "SingularMatrixError",
    "EigenvalueMultiplicity",
    "MultiplicityReport",
    "ShiftInvariance",
    "apply_spectral_domain",
    "apply_vertex_domain",
    "check_lsi_preconditions",
    "is_shift_invariant",
    "materialize",
    "DirectedLaplacian",
    "Graph",
    "GraphSignal",
    "build_graph",
    "demo_graph",
    "directed_laplacian",
    "in_degree_matrix",
    "out_degree_vector",
    "ring_graph",
    "JordanBlock",
    "SpectralDecomposition",
    "cluster_eigenvalues",
    "jordan_decompose",
    "matrix_polynomial_apply",
    "FrequencyOrdering",
    "Spectrum",
    "as_laplacian",
    "decompose",
    "gft",
    "igft",
    "order_frequencies",
    "quadratic_form",
    "shift",
    "shift_operator",
    "spectrum",
    "total_variation",
    "__version__",
]
