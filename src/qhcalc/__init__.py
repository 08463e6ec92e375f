"""Exact quantum cohomology rings and action/index calculus."""

from .qalgebra import GroundField, GradingError, QuantumClass, RingMismatchError
from .rings import CPn, Grassmannian, ProductRing, kunneth, quantum_pieri
from .ladders import (
    CaseTwoParameters,
    Decomposition,
    Ladder,
    build_ladder,
    case_ii_ladder,
    case_ii_parameters,
    ladder_class,
    pigeonhole_pair,
    search_decompositions,
    verify_decomposition,
)
from .spectra import (
    CappedOrbit,
    MonotoneData,
    augmented_action,
    cz_index_split,
    index_window_check,
    iterate,
    mean_index_split,
    recap,
)
from .models import (
    CPnQuadraticModel,
    ProductModel,
    cpn_fixed_points,
    verify_equal_augmented_actions,
)
from .carriers import (
    CarrierAssignment,
    OrbitTable,
    TableOrbit,
    admissible_assignments,
    counting_check,
    distinctness_check,
    neg_monotone_obstruction,
    relation_verdict,
    stable_subsequence,
)

__version__ = "0.1.0"
