"""Symmetric tensors, quantics, and explicit Waring decompositions.

The package stores complex symmetric tensors one coefficient per exponent
class, moves between tensors and homogeneous polynomials, evaluates the
apolar pairing, computes the Alexander-Hirschowitz generic symmetric rank,
and produces verified decompositions into powers of linear forms: the binary
monomial family and 2x2x2 tensors over R and C by Sylvester's method,
border-rank demonstration sequences, and Monte-Carlo typical-rank experiments.
"""

import types

from .combinatorics import (
    degree,
    enumerate_exponents,
    index_to_exponent,
    multinomial,
    sym_dimension,
)
from .decompose import (
    BorderSequenceSpec,
    BorderStep,
    PencilResult,
    SymmetricDecomposition,
    VerifyReport,
    binary_monomial_tensor,
    border_distance_table,
    border_sequence,
    decompose_monomial_rank_k,
    decompose_sym222_pencil,
    decomposition_from_json_obj,
    decomposition_to_json_obj,
    fit_loglog_slope,
    limit_decomposition,
    make_border_spec,
    make_decomposition,
    pencil_quadratic,
    reconstruct,
    verify,
)
from .errors import (
    ArithmeticOverflowError,
    CapacityError,
    DecompositionError,
    DegeneratePencilError,
    NotApplicableError,
    SymmetryError,
    UnsupportedOrderError,
    ValidationError,
    WorkerError,
)
from .montecarlo import (
    TrialStats,
    classify_asym222,
    classify_sym222,
    sample_asym222,
    sample_sym222,
    stats_to_csv,
    typical_rank_experiment,
)
from .quantics import (
    LinearForm,
    Quantic,
    apolar_form,
    evaluate,
    parse_quantic,
    quantic_to_tensor,
    render_quantic,
    tensor_to_quantic,
    veronese,
)
from .rank_oracle import (
    EXCEPTIONAL_PAIRS,
    RankReport,
    fiber_dimension,
    fiber_table,
    finitely_many_generic_decompositions,
    generic_rank_table,
    generic_symmetric_rank,
    is_exceptional,
    max_symmetric_rank_binary,
    rank_report,
    symmetric_rank_bounds,
)
from .tensor_core import (
    DenseTensor,
    SymmetricTensor,
    coefficient_vector,
    compress,
    contract_mode1,
    decompress,
    frobenius_distance,
    frobenius_norm,
    is_symmetric,
    mode1_unfolding,
    multilinear_transform,
    numerical_rank,
    outer_power,
    power_span_rank,
    symmetrize,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, types.ModuleType)
)
