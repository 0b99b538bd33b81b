"""Numerical toolkit for product systems of bimodules over finite-dimensional
von Neumann algebras: CP-semigroup cells, dilation towers, cocycle
classification and the reversible-Markov path-space realization."""

from .algebra import (
    Algebra,
    AlgebraElement,
    ConfigurationError,
    FaithfulnessError,
    StandardForm,
    State,
    diagonal_state,
    make_algebra,
    make_state,
    standard_form,
    uniform_state,
)
from .bimodule import (
    Bimodule,
    BimoduleMap,
    NotCompletelyPositiveError,
    gns_tensor,
    l2_bimodule,
    pi_phi,
    product_formula_defect,
    relative_tensor,
    verify_map,
)
from .cells import CellSystem, Unit, canonical_unit, cp_from_unit, unit_report
from .classify import (
    E0Semigroup,
    TwistedSystem,
    block_permutation_semigroup,
    canonical_iso,
    cocycle_equivalence,
    identity_semigroup,
    inner_semigroup,
    unit_operator,
    unit_to_cocycle,
)
from .cpdyn import CpMap, CpSemigroup, evaluate, semigroup_from_generator, verify_ucp
from .dilation import (
    Cocycle,
    TruncatedLimit,
    TruncatedOperator,
    TruncationError,
    cocycle_from_unit,
    compression_defect,
    continuity_profile,
    dilate,
    minimality_evidence,
    represent,
    unit_from_cocycle,
)
from .heatmarkov import (
    HeatDilation,
    MarkovModel,
    box,
    graph_model,
    heat_kernel,
    l2_cell,
    make_model,
    path_measure,
)
from .partition import Partition, common_refinement, join, parse_partition, partition, refines, uniform

__version__ = "0.1.0"
