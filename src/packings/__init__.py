"""Packing designs: bounds, constructions, directing, exact search, codes."""

from .bounds import (
    BoundReport,
    NotApplicableError,
    best_upper_bound,
    exact_by_theorems,
    exact_dpdn_by_theorem,
    exact_family,
    gen_second_johnson_bound,
    gen_second_johnson_feasible,
    hanani_b,
    horsley_bound_1,
    horsley_bound_2,
    johnson_schonheim,
    second_johnson,
)
from .codes import (
    ConstantWeightCode,
    IndelCode,
    add_constant_words,
    deletion_channel_check,
    lcs_length,
    max_pairwise_lcs,
    min_hamming_distance,
    to_constant_weight,
    to_indel_code,
)
from .construct import (
    balanced_packing,
    construct_optimal,
    general_construction,
)
from .core import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    StructuralError,
    ValidationReport,
    is_subsequence,
    structural_diagnostics,
    underlying_design,
    validate_directed,
    validate_packing,
)
from .directing import DirectingError, direct_packing, insert_point
from .io import (
    DesignDocument,
    load_code,
    load_design,
    save_code,
    save_design,
)
from .solve import SearchConfig, SearchResult, certify_optimal, dpdn_exact, pdn_exact

__version__ = "0.1.0"
