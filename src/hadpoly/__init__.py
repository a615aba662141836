"""Exact Hadamard-product calculus on numerators of polynomial-interpolated
power series, with coefficient-inequality checkers and verification suites."""

import types

from .analysis import (
    PropertyReport,
    SymmetryCertificate,
    gamma_contract,
    gamma_expand,
    has_internal_zeros,
    interlaces,
    is_gamma_positive,
    is_log_concave,
    is_nonnegative,
    is_real_rooted,
    is_ulc,
    is_unimodal,
    newton_violation,
    symmetry_certificate,
)
from .decomp import (
    SymDecomp,
    decomposition_is_gamma_positive,
    decomposition_is_interlacing,
    decomposition_is_nonnegative,
    defect1_ell,
    i_decompose,
    r_decompose,
)
from .ehrhart import ReeveData, counterexample_report, product_f, reeve
from .generators import TrialConfig
from .operators import (
    check_functional_eq,
    diamond,
    diamond_power,
    f_from_h,
    h_from_f,
    hadamard,
    msupp,
    reflect,
    subdivision,
    w_inverse,
    w_transform,
)
from .poly import Poly, TaggedPoly, gcd, reverse
from .roots import isolate_roots

__version__ = "0.1.0"

# The public API is every name imported above: no submodule, nothing private.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
