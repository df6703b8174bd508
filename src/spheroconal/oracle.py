"""Independent numerical checks: grid operators and |l,m> rotor spectra.

Everything here is deliberately redundant with the exact polynomial algebra:
differential operators are applied by Fourier spectral derivatives on a
grid over one full period of both elliptic coordinates, and the spectrum
of every degree is recomputed from the asymmetric-rotor matrix on the
|l,m> basis. Agreement between the routes is what the test suite (and the
CLI ladder --verify mode) certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymmetry import AsymmetryConfig
from .elliptic import jacobi, quarter_period
from .harmonics import SpheroconalHarmonic, evaluate

__all__ = [
    "GridField",
    "make_grid",
    "state_field",
    "fd_operator",
    "rotor_energies",
]

_KINDS = ("L2", "Hstar", "Lx", "Ly", "Lz", "Px", "Py", "Pz")
_TAIL_LOG = math.log(1e-13)


@dataclass(frozen=True, eq=False)
class GridField:
    """Sampled values on a tensor grid in the two elliptic coordinates."""

    chi1: np.ndarray
    chi2: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        chi1 = np.asarray(self.chi1, dtype=float)
        chi2 = np.asarray(self.chi2, dtype=float)
        values = np.asarray(self.values, dtype=float)
        for axis, chi in enumerate((chi1, chi2)):
            if chi.ndim != 1 or chi.size < 9:
                raise ValueError(f"axis {axis + 1} grid must be 1-d with at least 9 points")
            steps = np.diff(chi)
            if steps.min() <= 0 or np.ptp(steps) > 1e-9 * abs(steps.mean()):
                raise ValueError(f"axis {axis + 1} grid must be uniform and increasing")
        if values.shape != (chi1.size, chi2.size):
            raise ValueError(
                f"values shape {values.shape} does not match grids "
                f"({chi1.size}, {chi2.size})"
            )
        object.__setattr__(self, "chi1", chi1)
        object.__setattr__(self, "chi2", chi2)
        object.__setattr__(self, "values", values)


def _axis_size(ell: int, log_nome: float) -> int:
    """Smallest power of two, at least 32, that resolves a degree-``ell`` field.

    The Fourier coefficients of sn, cn and dn fall by the nome q per step
    of two harmonics, so harmonic ell + 2m of a degree-``ell`` product is
    bounded by about C(m + ell, ell) q^m times its leading one. The grid
    puts its Nyquist harmonic n/2 past the point where that bound drops
    below 1e-13.
    """
    n = 32
    while True:
        m = (n // 2 - ell) / 2
        if m > 0:
            log_binom = math.lgamma(m + ell + 1) - math.lgamma(m + 1) - math.lgamma(ell + 1)
            if log_binom + m * log_nome < _TAIL_LOG:
                return n
        n *= 2


def make_grid(config: AsymmetryConfig, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """One full period [-2K, 2K) per axis, offset by half a step.

    Every harmonic is 4K-periodic in each coordinate, so spectral
    derivatives of a degree-``ell`` field on these grids are exact to
    rounding. The sizes grow with ``ell`` and with each axis's K/K' (see
    ``_axis_size``). They are powers of two, hence multiples of 4, so no
    node lands on |sn| = 1 and the metric factor W never vanishes.
    """
    if ell < 0:
        raise ValueError(f"degree must be nonnegative, got {ell}")
    k1 = quarter_period(config.k1sq)
    k2 = quarter_period(config.k2sq)
    grids = []
    for k, co in ((k1, k2), (k2, k1)):
        n = _axis_size(ell, -math.pi * co / k)
        step = 4.0 * k / n
        grids.append(-2.0 * k + step * (np.arange(n) + 0.5))
    return grids[0], grids[1]


def state_field(state: SpheroconalHarmonic, chi1, chi2) -> GridField:
    """Sample one harmonic on a tensor grid."""
    return GridField(chi1, chi2, evaluate(state, chi1, chi2))


def _spectral_deriv(values: np.ndarray, period: float, axis: int, order: int) -> np.ndarray:
    """Fourier derivative of a field periodic with ``period`` along one axis."""
    n = values.shape[axis]
    factor = (2j * np.pi / period * np.arange(n // 2 + 1)) ** order
    if order % 2 and n % 2 == 0:
        factor[-1] = 0.0  # the Nyquist mode of a real field has no odd derivative
    shape = [1, 1]
    shape[axis] = -1
    coeffs = np.fft.rfft(values, axis=axis) * factor.reshape(shape)
    return np.fft.irfft(coeffs, n=n, axis=axis)


def fd_operator(kind: str, field: GridField, config: AsymmetryConfig) -> GridField:
    """Apply one separated operator to a sampled field by spectral derivatives.

    Kinds
    -----
    ``L2``
        Squared angular momentum; eigenfields return l(l+1) times themselves.
    ``Hstar``
        Scaled asymmetry energy operator; eigenfields return (2E*)/2 times
        themselves.
    ``Lx``, ``Ly``, ``Lz``
        Angular momentum components, action divided by i*hbar (real fields).
    ``Px``, ``Py``, ``Pz``
        The angular derivative term of the linear momentum with the metric
        scale cancelled: the field r * d(psi)/d(x_i) restricted to the sphere.

    Each grid must span exactly one period 4K of its coordinate (see
    ``make_grid``); ValueError is raised otherwise. The output lives on the
    same grids as the input.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {_KINDS}")
    chi1, chi2, values = field.chi1, field.chi2, field.values
    periods = (4.0 * quarter_period(config.k1sq), 4.0 * quarter_period(config.k2sq))
    for axis, (chi, period) in enumerate(zip((chi1, chi2), periods)):
        span = chi.size * float(chi[1] - chi[0])
        if abs(span - period) > 1e-9 * period:
            raise ValueError(
                f"axis {axis + 1} grid spans {span:.6g}, not one period 4K = {period:.6g}"
            )

    s1, c1, d1 = jacobi(chi1, config.k1sq)
    s2, c2, d2 = jacobi(chi2, config.k2sq)
    u = (s1 * s1)[:, None]
    v = (s2 * s2)[None, :]
    w = 1.0 - config.k1sq * u - config.k2sq * v

    def col(x: np.ndarray) -> np.ndarray:
        return x[:, None]

    def row(x: np.ndarray) -> np.ndarray:
        return x[None, :]

    if kind in ("L2", "Hstar"):
        d11 = _spectral_deriv(values, periods[0], 0, 2)
        d22 = _spectral_deriv(values, periods[1], 1, 2)
        if kind == "L2":
            out = -(d11 + d22) / w
        else:
            e1, e2, e3 = config.e
            coef1 = e1 - (e1 - e2) * v
            coef2 = e3 + (e2 - e3) * u
            out = -(coef1 * d11 + coef2 * d22) / (2.0 * w)
        return GridField(chi1, chi2, out)

    g1 = _spectral_deriv(values, periods[0], 0, 1)
    g2 = _spectral_deriv(values, periods[1], 1, 1)
    a = config.k1sq
    b = config.k2sq
    if kind == "Lx":
        out = -(col(d1) * row(c2 * d2) * g1 + a * col(s1 * c1) * row(s2) * g2) / w
    elif kind == "Ly":
        out = -(-col(c1) * row(s2 * d2) * g1 + col(s1 * d1) * row(c2) * g2) / w
    elif kind == "Lz":
        out = -(-b * col(s1) * row(s2 * c2) * g1 - col(c1 * d1) * row(d2) * g2) / w
    elif kind == "Px":
        out = (-a * col(s1 * c1) * row(s2) * g1 + col(d1) * row(c2 * d2) * g2) / w
    elif kind == "Py":
        out = (-col(s1 * d1) * row(c2) * g1 - col(c1) * row(s2 * d2) * g2) / w
    else:  # Pz
        out = (col(c1 * d1) * row(d2) * g1 - b * col(s1) * row(s2 * c2) * g2) / w
    return GridField(chi1, chi2, out)


# ---------------------------------------------------------------------------
# |l,m> route for the spectra


def rotor_energies(ell: int, config: AsymmetryConfig) -> np.ndarray:
    """Scaled energies 2E* of one multiplet from the |l,m> basis, ascending.

    Builds Lx, Ly and Lz on |l,m> from the standard elements
    <l,m+1|L+|l,m> = sqrt(l(l+1) - m(m+1)) and returns the eigenvalues of
    sum(e_i L_i^2), the asymmetric-rotor matrix of King, Hainer and Cross
    (1943), with no elliptic machinery. Works at every degree.
    """
    if ell < 0:
        raise ValueError(f"degree must be nonnegative, got {ell}")
    m = np.arange(-ell, ell)
    raising = np.diag(np.sqrt(ell * (ell + 1) - m * (m + 1.0)), -1)
    lx = (raising + raising.T) / 2.0
    ly = (raising - raising.T) / 2.0j
    lz = np.diag(np.arange(-ell, ell + 1.0))
    return np.linalg.eigvalsh(sum(e * (op @ op) for e, op in zip(config.e, (lx, ly, lz))))
