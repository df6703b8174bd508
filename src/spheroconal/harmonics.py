"""Two-coordinate harmonics of an asymmetric rotor.

Each harmonic of degree l is a product of two one-coordinate polynomial
blocks, one per elliptic coordinate, whose species are paired by swapping
the sn and dn letters and whose eigenvalues obey h1 + h2 = l(l+1). The
scaled energy is 2E* = e1 h1 + e3 h2; node counts satisfy n1 + n2 = l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .asymmetry import AsymmetryConfig
from .elliptic import JacobiTriple
from .errors import InversionFailure, MatchFailure, MissingScale, OutOfRange
from .lame_solver import LamePolynomial, solve
from .polyalg import BiSnPoly, Species

__all__ = [
    "SpheroconalHarmonic",
    "build_basis",
    "total_energy",
    "evaluate",
    "evaluate_xyz",
    "LABEL_ORDER",
    "label_for_species",
    "species_for_label",
]

# Cartesian labels keyed by the first-coordinate species letters. dn maps to
# the x axis, cn to y, sn to z; the second-coordinate species is the partner
# (s and d swapped). LABEL_ORDER fixes all deterministic orderings.
_LABELS = {
    frozenset(): "1",
    frozenset("d"): "x",
    frozenset("c"): "y",
    frozenset("s"): "z",
    frozenset("cd"): "xy",
    frozenset("sd"): "xz",
    frozenset("sc"): "yz",
    frozenset("scd"): "xyz",
}
LABEL_ORDER = ("1", "x", "y", "z", "xy", "xz", "yz", "xyz")


def label_for_species(species_a: Species) -> str:
    """Cartesian label of the harmonic family with this first-side species."""
    return _LABELS[frozenset(species_a.letters)]


def species_for_label(label: str) -> tuple[Species, Species]:
    """First- and second-coordinate species of a cartesian label."""
    for letters, lab in _LABELS.items():
        if lab == label:
            a = Species("s" in letters, "c" in letters, "d" in letters)
            return a, a.partner()
    raise ValueError(f"unknown label {label!r}")


@dataclass(frozen=True)
class SpheroconalHarmonic:
    """One harmonic of the asymmetric rotor, normalized to a0 = 1 on each side.

    Attributes
    ----------
    ell, n1, n2 : int
        Degree and per-coordinate node counts, n1 + n2 = ell.
    species_a, species_b : Species
        Prefactor letters on each coordinate (partners under s <-> d).
    h1, h2 : float
        One-coordinate eigenvalues, h1 + h2 = ell (ell + 1).
    estar2 : float
        Scaled asymmetry energy 2E* = e1 h1 + e3 h2.
    parities : tuple of int
        Signs under the reflections x -> -x, y -> -y, z -> -z.
    label : str
        Cartesian tag ('1', 'x', ..., 'xyz') of the species pair.
    lame1, lame2 : LamePolynomial
        The two one-coordinate eigenstates.
    """

    ell: int
    species_a: Species
    species_b: Species
    n1: int
    n2: int
    h1: float
    h2: float
    estar2: float
    parities: tuple[int, int, int]
    label: str
    lame1: LamePolynomial
    lame2: LamePolynomial

    @cached_property
    def wavefunction(self) -> BiSnPoly:
        """The product block; both polynomial parts have P(0) = 1.

        Built on first read; later reads return the same object.
        """
        return BiSnPoly.from_product(self.lame1.poly, self.lame2.poly)


@lru_cache(maxsize=256)
def _build_basis_cached(ell: int, config: AsymmetryConfig) -> tuple[SpheroconalHarmonic, ...]:
    e1, _, e3 = config.e
    target = float(ell * (ell + 1))
    states: list[SpheroconalHarmonic] = []
    for label in LABEL_ORDER:
        species_a, species_b = species_for_label(label)
        if (ell - len(species_a.letters)) % 2 != 0:
            continue
        side1 = solve(ell, species_a, config.k1sq, side=1)
        side2 = solve(ell, species_b, config.k2sq, side=2)
        if len(side1) != len(side2):
            raise MatchFailure(
                f"species block sizes differ for label {label!r} at degree {ell}"
            )
        # Complementary spectra pair in reversed order: both sides ascend and
        # each pair sums to l(l+1).
        for one, two in zip(side1, reversed(side2)):
            if abs(one.h + two.h - target) > 1e-9 * max(1.0, target):
                raise MatchFailure(
                    f"h-sum violation for label {label!r} rank {one.rank} at degree {ell}: "
                    f"{one.h} + {two.h} != {target}"
                )
            parities = tuple(-1 if axis in label else 1 for axis in "xyz")
            states.append(
                SpheroconalHarmonic(
                    ell=ell,
                    species_a=species_a,
                    species_b=species_b,
                    n1=one.n,
                    n2=two.n,
                    h1=one.h,
                    h2=two.h,
                    estar2=e1 * one.h + e3 * two.h,
                    parities=parities,
                    label=label,
                    lame1=one,
                    lame2=two,
                )
            )
    states.sort(key=lambda s: (s.estar2, LABEL_ORDER.index(s.label), s.n1))
    return tuple(states)


def build_basis(ell: int, config: AsymmetryConfig) -> list[SpheroconalHarmonic]:
    """All 2*ell + 1 harmonics of one degree, sorted by increasing 2E*.

    Ties (which do not occur for a strictly asymmetric configuration) fall
    back to the label order and then the first node count.
    """
    return list(_build_basis_cached(ell, config))


def total_energy(state: SpheroconalHarmonic, config: AsymmetryConfig) -> float:
    """Absolute rotor energy (hbar = 1): q l(l+1)/2 + p (2E*)/2.

    Requires a configuration built from moments of inertia; raises
    MissingScale when only the dimensionless e1 is known.
    """
    if config.q is None or config.p is None:
        raise MissingScale("configuration carries no absolute inertia scale")
    return 0.5 * (config.q * state.ell * (state.ell + 1) + config.p * state.estar2)


def evaluate(state: SpheroconalHarmonic, chi1, chi2):
    """Wavefunction values on the outer grid of two argument arrays.

    Scalars in, scalar out; 1-d arrays in, a (len(chi1), len(chi2)) array out.
    """
    if np.ndim(chi1) == 0 and np.ndim(chi2) == 0:
        return state.wavefunction.evaluate(float(chi1), float(chi2))
    return state.wavefunction.evaluate_grid(np.atleast_1d(chi1), np.atleast_1d(chi2))


def _invert_direction(x: float, y: float, z: float, a: float, b: float) -> tuple[float, float]:
    """Map a unit direction to (u, v) = (sn^2 chi1, sn^2 chi2)."""
    if y == 0.0:
        # Seam where the two coordinate charts meet: pick the valid one.
        if z * z <= a:
            return z * z / a, 1.0
        return 1.0, x * x / b
    zz = z * z

    def consistency(u: float) -> float:
        return u * (1.0 - a * u - b * x * x) / (1.0 - a * u) - zz

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if hi - lo < 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if consistency(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    else:
        raise InversionFailure(f"bisection failed for direction {(x, y, z)}")
    u = 0.5 * (lo + hi)
    # Polish with the chart equations themselves; this also repairs the
    # square-root loss of the bisected u when z is many orders below 1.
    for _ in range(3):
        v = min(max(x * x / (1.0 - a * u), 0.0), 1.0)
        u = min(max(zz / (1.0 - b * v), 0.0), 1.0)
    v = min(max(x * x / (1.0 - a * u), 0.0), 1.0)
    return u, v


def evaluate_xyz(state: SpheroconalHarmonic, direction) -> float:
    """Wavefunction value at a unit direction (x, y, z) on the sphere.

    The elliptic coordinates are recovered by bisecting the chart
    consistency equation in u = sn^2 chi1; no inverse elliptic functions are
    needed. The recovered coordinates are verified to reproduce the input
    direction to 1e-10 (InversionFailure otherwise).
    """
    x, y, z = (float(t) for t in direction)
    norm = math.sqrt(x * x + y * y + z * z)
    if abs(norm - 1.0) > 1e-6:
        raise OutOfRange(f"direction must be a unit vector, |direction| = {norm!r}")
    x, y, z = x / norm, y / norm, z / norm

    a = state.wavefunction.k1sq
    b = state.wavefunction.k2sq
    u, v = _invert_direction(x, y, z, a, b)

    # Signs: x rides on sn(chi2), y on cn(chi1), z on sn(chi1); cn(chi2) and
    # both dn factors stay positive on the fundamental domain. At y = 0 the
    # sign of cn(chi1) is immaterial (the cn pair vanishes with cn(chi2)).
    s1 = math.copysign(math.sqrt(u), z) if z != 0.0 else 0.0
    c1_mag = math.sqrt(max(1.0 - u, 0.0))
    c1 = math.copysign(c1_mag, y) if y != 0.0 else c1_mag
    d1 = math.sqrt(1.0 - a * u)
    s2 = math.copysign(math.sqrt(v), x) if x != 0.0 else 0.0
    c2 = math.sqrt(max(1.0 - v, 0.0))
    d2 = math.sqrt(1.0 - b * v)

    xx, yy, zz = d1 * s2, c1 * c2, s1 * d2
    if max(abs(xx - x), abs(yy - y), abs(zz - z)) > 1e-10:
        raise InversionFailure(
            f"recovered coordinates reproduce {(xx, yy, zz)} instead of {(x, y, z)}"
        )
    value = state.wavefunction.evaluate_triples(
        JacobiTriple(np.asarray(s1), np.asarray(c1), np.asarray(d1)),
        JacobiTriple(np.asarray(s2), np.asarray(c2), np.asarray(d2)),
    )
    return float(value[0, 0])
