"""Number-theoretic transforms over GF(p) built from perfect linear block codes.

The construction: take the parity-check matrix H of a perfect code,
inflate it to a square matrix H_e (null rows, parity-row sums, or the
full circulant of the check polynomial for cyclic codes), and form
T = H_e + lambda*I for an admissible lambda. The lambda-eigenspace of T
is exactly the code, T is invertible, and for cyclic codes T commutes
with cyclic shifts — giving a transform with shift and convolution
behavior analogous to the classical discrete-transform toolkit, with
exact arithmetic throughout.

The names below are the documented public API; everything else lives in
the submodules (gf, poly, matrix, codes, transforms, verify, cli).
"""

from .gf import ModulusMismatchError, PrimeField
from .poly import CyclicRing, FieldPoly
from .matrix import FieldMatrix, SingularMatrixError
from .codes import (
    CodeSpec,
    UnsupportedParametersError,
    cyclic_hamming_spec,
    golay_spec,
    hamming74_systematic,
    hamming_parity_check,
    shortened_hamming_6_3,
)
from .transforms import (
    CheckResult,
    EigenvalueUnsuitableError,
    PropertyReport,
    TransformSpec,
    apply_via_polynomial,
    build_appendix_systematic,
    build_cyclic,
    build_extended_golay,
    build_standard,
    eigenspace,
    is_perfect_transform,
    verify_properties,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CodeSpec",
    "CyclicRing",
    "EigenvalueUnsuitableError",
    "FieldMatrix",
    "FieldPoly",
    "ModulusMismatchError",
    "PrimeField",
    "PropertyReport",
    "SingularMatrixError",
    "TransformSpec",
    "UnsupportedParametersError",
    "apply_via_polynomial",
    "build_appendix_systematic",
    "build_cyclic",
    "build_extended_golay",
    "build_standard",
    "cyclic_hamming_spec",
    "eigenspace",
    "golay_spec",
    "hamming74_systematic",
    "hamming_parity_check",
    "is_perfect_transform",
    "shortened_hamming_6_3",
    "verify_properties",
]
