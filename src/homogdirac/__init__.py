"""Equivariant bundles and Hodge-Dirac operators on compact homogeneous spaces.

Global, coordinate-free constructions over quotients G/K of compact
matrix groups: induced bundles with standard module frames, invariant
connections parameterized by their zero-order corrections, the Clifford
bundle of the tangent module, the Hodge-Dirac operator with its
self-adjointness criteria, and exact isotypic spectral blocks.
"""

from .groups import GroupElement, GroupModel, QuadratureRule, expm_skew
from .cliffordalg import CliffordAlgebra
from .reps import UnitaryRep, adjoint_rep, dual_rep, spin_rep
from .sections import (
    AInner,
    BandwidthWarning,
    CliffordKRep,
    CliffordProduct,
    Codomain,
    ConjugatedProjection,
    Constant,
    DerivativeOrderError,
    EmbedTangent,
    EvalPoints,
    FundamentalField,
    GramSection,
    KAverage,
    MatrixCoefficient,
    MatrixKRep,
    OpApply,
    RankOne,
    RealPart,
    RestrictedKRep,
    Scale,
    Section,
    Sum,
    Translate,
    TrivialKRep,
    equivariance_defect,
    l2_inner,
    lambda_deriv,
)
from .bundles import (
    InducedBundle,
    frame_gram,
    module_map_values,
    monopole_bundle,
    projection_section,
    random_equivariant_section,
    tangent_bundle,
)
from .geometry import (
    ApplyConnection,
    Connection,
    canonical_connection,
    levi_civita_connection,
    spinor_algebra,
    tangent_frame,
    torsion,
)
from .dirac import (
    CriterionReport,
    SpectralBlock,
    casimir_value,
    commutator_defect,
    connection_test_matrix,
    criterion_check,
    gradient,
    hodge_dirac,
    isotypic_coefficients,
    minimal_violating_connection,
    selfadjoint_defect,
    spectral_block,
)

__version__ = "0.1.0"
