"""Entanglement and teleportation-resource detection in the Weyl basis.

The package decomposes density matrices over the clock-and-shift (Weyl)
operator basis, applies the correlation-matrix trace-norm test for
bipartite entanglement, and searches for a unitary whose Weyl-built
detection operator witnesses usefulness for quantum teleportation.
"""

from .bipartite import (
    ENTANGLED,
    INCONCLUSIVE,
    SEPARABLE,
    USEFUL,
    BipartiteDecomposition,
    Verdict,
    correlation_verdict,
    decompose_bipartite,
    kyfan_norm,
    ppt_criterion,
    product_test,
    reconstruct_bipartite,
    reduced_from_decomposition,
    weyl_separability_criterion,
)
from .bloch import (
    BlochVector,
    bloch_length,
    decompose,
    purity_from_length,
    reconstruct,
)
from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    ValidationError,
    WrongTraceError,
    kron,
    partial_trace,
    partial_transpose,
    purity,
    singular_values,
    validate_density,
)
from .states import (
    bell_diagonal,
    example4,
    haar_unitary,
    isotropic,
    max_entangled,
    max_entangled_ket,
    ppt_3x3,
    random_mixed,
    random_product_pure,
    random_separable,
)
from .teleport import (
    DetectionOperator,
    FefEstimate,
    detection_operator,
    fef_search,
    mean_value,
    optimal_fidelity,
    teleportation_verdict,
)
from .weyl import WeylBasis, weyl_basis, weyl_dagger_index, weyl_op

__version__ = "0.1.0"

__all__ = [
    "BipartiteDecomposition",
    "BlochVector",
    "DensityMatrix",
    "DetectionOperator",
    "DimensionMismatchError",
    "ENTANGLED",
    "FefEstimate",
    "INCONCLUSIVE",
    "NotHermitianError",
    "NotPositiveSemidefiniteError",
    "SEPARABLE",
    "USEFUL",
    "ValidationError",
    "Verdict",
    "WeylBasis",
    "WrongTraceError",
    "bell_diagonal",
    "bloch_length",
    "correlation_verdict",
    "decompose",
    "decompose_bipartite",
    "detection_operator",
    "example4",
    "fef_search",
    "haar_unitary",
    "isotropic",
    "kron",
    "kyfan_norm",
    "max_entangled",
    "max_entangled_ket",
    "mean_value",
    "optimal_fidelity",
    "partial_trace",
    "partial_transpose",
    "ppt_3x3",
    "ppt_criterion",
    "product_test",
    "purity",
    "purity_from_length",
    "random_mixed",
    "random_product_pure",
    "random_separable",
    "reconstruct",
    "reconstruct_bipartite",
    "reduced_from_decomposition",
    "singular_values",
    "teleportation_verdict",
    "validate_density",
    "weyl_basis",
    "weyl_dagger_index",
    "weyl_op",
    "weyl_separability_criterion",
]
