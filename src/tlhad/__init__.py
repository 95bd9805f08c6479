"""Rank-n Temperley-Lieb representations from generalized Hadamard data.

The package builds local TL generators from matrix spectra, classifies
the Hadamard-type matrices that govern when the construction closes,
and numerically verifies every relation involved: the TL relations
themselves, the Hecke condition of the derived braid generators, and
the constant and spectral Yang-Baxter equations. A JSON-speaking CLI
(`tlhad`) exposes generation, checking, building, and search for CI
use.
"""
from __future__ import annotations

from .baxter import (
    BraidData,
    braid_from_tl,
    check_braid,
    check_spectral_ybe,
    check_ybe,
    hecke_residual,
    spectral_samples,
    to_plain_r,
    ybe_residuals,
)
from .hadamard import (
    EquivalenceMove,
    apply_equivalence,
    dephase,
    dita,
    f4_family,
    f6_family,
    fourier,
    is_ghm,
)
from .linalg import (
    DEFAULT_TOL,
    Matrix,
    as_matrix,
    diag,
    identity,
    inverse,
    kron,
    matrix_from_dict,
    matrix_to_dict,
    on_strands,
    unit_root,
    zeros,
)
from .master import (
    MasterSpec,
    NestingSpec,
    NestingStage,
    check_master_condition,
    f4_master,
    f6_master,
    fourier_master,
    h0,
    h1,
    master_matrix,
    master_polynomial_eval,
    nest,
    pigeonhole_obstruction,
    search_master_representation,
)
from .tlrep import (
    TLAnsatz,
    build_local_generator,
    check_master4,
    embed,
    fixture_u1,
    fixture_u1_ansatz,
    fixture_u2,
    fixture_u2_ansatz,
    reconstruct_m,
    verify_tl,
    weighted_hadamard_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "DEFAULT_TOL",
    "Matrix",
    "as_matrix",
    "identity",
    "zeros",
    "diag",
    "unit_root",
    "kron",
    "on_strands",
    "inverse",
    "matrix_to_dict",
    "matrix_from_dict",
    # hadamard
    "EquivalenceMove",
    "apply_equivalence",
    "dephase",
    "is_ghm",
    "fourier",
    "f4_family",
    "f6_family",
    "dita",
    # master
    "MasterSpec",
    "NestingStage",
    "NestingSpec",
    "master_matrix",
    "master_polynomial_eval",
    "check_master_condition",
    "fourier_master",
    "f4_master",
    "f6_master",
    "nest",
    "pigeonhole_obstruction",
    "search_master_representation",
    "h0",
    "h1",
    # tlrep
    "TLAnsatz",
    "build_local_generator",
    "embed",
    "verify_tl",
    "check_master4",
    "reconstruct_m",
    "weighted_hadamard_check",
    "fixture_u1",
    "fixture_u2",
    "fixture_u1_ansatz",
    "fixture_u2_ansatz",
    # baxter
    "BraidData",
    "braid_from_tl",
    "hecke_residual",
    "check_braid",
    "spectral_samples",
    "check_spectral_ybe",
    "ybe_residuals",
    "to_plain_r",
    "check_ybe",
]
