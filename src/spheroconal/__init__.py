"""Lamé spheroconal harmonics and asymmetric-rotor ladder algebra.

The package computes the polynomial angular eigenfunctions of the
asymmetric rotor in spheroconal coordinates, the matching rotational
spectra, and three families of exact ladder actions connecting the
eigenfunctions: node exchanges inside a multiplet, angular-momentum
shifts at fixed degree, and linear-momentum shifts between adjacent
degrees. A spectral oracle provides an independent numerical route to
every operator for cross-validation.
"""

from .asymmetry import AsymmetryConfig, e1_from_modulus, from_e1, from_moments
from .elliptic import JacobiTriple, jacobi, quarter_period
from .errors import (
    DegenerateEigenvalues,
    Divergent,
    InvalidOrdering,
    InversionFailure,
    LadderEnd,
    MatchFailure,
    MissingScale,
    NotDivisible,
    OutOfRange,
    ProjectionResidual,
    Singular,
    SpheroconalError,
    SphericalTop,
    SymmetricTop,
    WrongKind,
)
from .harmonics import (
    LABEL_ORDER,
    SpheroconalHarmonic,
    build_basis,
    evaluate,
    evaluate_xyz,
    label_for_species,
    species_for_label,
    total_energy,
)
from .ladder import (
    LadderDecomposition,
    LadderTerm,
    StateRef,
    angular_momentum_matrix,
    apply_angular_momentum,
    apply_linear_momentum,
    linear_momentum_bracket,
    shift_nodes,
    species_transition,
    state_ref,
)
from .lame_solver import LamePolynomial, apply_operator, build_matrix, matrix_size, solve
from .oracle import (
    GridField,
    fd_operator,
    make_grid,
    rotor_energies,
    state_field,
)
from .polyalg import BiSnPoly, Species, SnPoly, differentiate, divide_by_scale

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AsymmetryConfig",
    "BiSnPoly",
    "DegenerateEigenvalues",
    "Divergent",
    "GridField",
    "InvalidOrdering",
    "InversionFailure",
    "JacobiTriple",
    "LABEL_ORDER",
    "LadderDecomposition",
    "LadderEnd",
    "LadderTerm",
    "LamePolynomial",
    "MatchFailure",
    "MissingScale",
    "NotDivisible",
    "OutOfRange",
    "ProjectionResidual",
    "Singular",
    "SnPoly",
    "Species",
    "SpheroconalError",
    "SpheroconalHarmonic",
    "SphericalTop",
    "StateRef",
    "SymmetricTop",
    "WrongKind",
    "angular_momentum_matrix",
    "apply_angular_momentum",
    "apply_linear_momentum",
    "apply_operator",
    "build_basis",
    "build_matrix",
    "differentiate",
    "divide_by_scale",
    "e1_from_modulus",
    "evaluate",
    "evaluate_xyz",
    "fd_operator",
    "from_e1",
    "from_moments",
    "jacobi",
    "label_for_species",
    "linear_momentum_bracket",
    "make_grid",
    "matrix_size",
    "quarter_period",
    "rotor_energies",
    "shift_nodes",
    "solve",
    "species_for_label",
    "species_transition",
    "state_field",
    "state_ref",
    "total_energy",
]
