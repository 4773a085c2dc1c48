"""Deterministic binary/ternary sensing matrices from Euler squares,
exhaustive coherence verification, sparse recovery benchmarks and a
compressed-feature image retrieval pipeline."""

__version__ = "0.1.0"

from .construct import (SensingMatrix, build_binary_matrix, build_extended,
                        build_for_row_size, build_hadamard, build_ternary,
                        load_esm, save_esm)
from .euler import (EulerSquare, euler_square, macneish_product,
                    mols_prime_power, validate_euler_square)
from .fields import GaloisField, build_field, factorize, find_irreducible
from .props import (CoherenceReport, aspect_constant, coherence,
                    max_binary_columns, rip_delta, sparsity_guarantee,
                    welch_bound)
from .recovery import (RecoveryResult, gen_bernoulli_matrix,
                       gen_gaussian_matrix, gen_sparse_signal, recover, snr)

__all__ = [
    "__version__",
    "GaloisField", "build_field", "find_irreducible",
    "EulerSquare", "euler_square", "factorize", "macneish_product",
    "mols_prime_power", "validate_euler_square",
    "SensingMatrix", "build_binary_matrix", "build_for_row_size",
    "build_extended", "build_hadamard", "build_ternary",
    "save_esm", "load_esm",
    "CoherenceReport", "coherence", "welch_bound",
    "max_binary_columns", "rip_delta", "sparsity_guarantee", "aspect_constant",
    "RecoveryResult", "recover",
    "gen_sparse_signal", "gen_gaussian_matrix", "gen_bernoulli_matrix", "snr",
]
