"""Deterministic binary/ternary sensing matrices from Euler squares,
exhaustive coherence verification, sparse recovery benchmarks and a
compressed-feature image retrieval pipeline."""

__version__ = "0.1.0"

from .construct import (SensingMatrix, build_binary_matrix, build_extended,
                        build_for_row_size, build_hadamard, build_ternary,
                        load_esm, save_esm)
from .euler import (EulerSquare, euler_square, macneish_product,
                    mols_prime_power, reduce_degree, validate_euler_square)
from .fields import (GaloisField, build_field, factorize, field_inv,
                     find_irreducible)
from .props import (CoherenceReport, aspect_constant, coherence,
                    max_binary_columns, rip_delta, sparsity_guarantee,
                    welch_bound)
from .recovery import (RecoveryResult, SparseSignal, basis_pursuit,
                       gen_bernoulli_matrix, gen_gaussian_matrix,
                       gen_sparse_signal, omp, recover, snr)

__all__ = [
    "__version__",
    "GaloisField", "build_field", "field_inv", "find_irreducible",
    "EulerSquare", "euler_square", "factorize", "macneish_product",
    "mols_prime_power", "reduce_degree", "validate_euler_square",
    "SensingMatrix", "build_binary_matrix", "build_for_row_size",
    "build_extended", "build_hadamard", "build_ternary",
    "save_esm", "load_esm",
    "CoherenceReport", "coherence", "welch_bound",
    "max_binary_columns", "rip_delta", "sparsity_guarantee", "aspect_constant",
    "SparseSignal", "RecoveryResult", "recover", "omp", "basis_pursuit",
    "gen_sparse_signal", "gen_gaussian_matrix", "gen_bernoulli_matrix", "snr",
]
