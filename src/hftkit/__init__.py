"""Spectra of parameter-dependent real-symmetric operators.

The toolkit diagonalizes H(lambda), rotates each degenerate subspace into
the basis that diagonalizes dH/dlambda (the basis whose states carry the
true one-sided eigenvalue slopes), classifies eigenvectors by point-group
irrep, and assembles filled-fermion ground-state curves whose cusp slopes
at level crossings are resolved instead of averaged away.
"""

from .spectral import (
    DEFAULT_FD_STEP,
    ParametricModel,
    Spectrum,
    SymmetricMatrix,
    TrackingError,
    eigh,
    fd_derivative,
    fd_derivative_onesided,
    match_columns,
    track,
)
from .hft import (
    HftReport,
    RotatedSpectrum,
    StateSlopeRecord,
    cluster_degeneracies,
    continuity_overlap,
    default_degeneracy_tol,
    expectation,
    hft_basis,
    hft_consistent_basis,
    hft_report,
    mixed_slope,
    offdiag_identity_residual,
    rotated_spectrum,
    sweep,
)
from .symmetry import (
    CharacterTable,
    ClassificationError,
    GroupRep,
    GroupVerification,
    IrrepLabel,
    c2v_character_table,
    classify,
    classify_vector,
    commutant_residual,
    load_character_table,
    load_group_rep,
    project,
    verify_group,
)
from .models import (
    OscillatorAnalytic,
    build_model,
    oscillator_analytic,
    oscillator_basis,
    oscillator_matrix,
    oscillator_model,
    oscillator_product_expectation,
    oscillator_rep,
    oscillator_xy_matrix,
    six_site_analytic_eigenvalues,
    six_site_model,
    six_site_rep,
)
from .fermi import (
    CuspReport,
    FillingSpec,
    GroundStateCurve,
    cusp_report,
    find_crossings,
    ground_energy,
    ground_slope_hft,
    ground_state_curve,
    ground_state_cusps,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
