"""Polynomial eigenfunctions of the one-coordinate equation.

For each degree l and species prefactor, the operator
``-d^2/dchi^2 + l(l+1) k^2 sn^2(chi)`` maps the finite family
{prefactor * sn^(2s)} into itself. Its matrix in that basis is tridiagonal;
the eigenvalues h and the recurrence-normalized coefficient vectors
(leading coefficient fixed to 1) define the polynomial solutions used to
assemble the two-coordinate harmonics.

That matrix is badly non-normal at high degree, so the eigenvalues come
instead from the same spectrum in a well-conditioned form: the h of a
species are the eigenvalues of one real symmetric Wang block of
Lx^2 + k^2 Ly^2 (Wang 1929; King, Hainer & Cross 1943), each rounded to
the nearest float by exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DegenerateEigenvalues, WrongKind
from .polyalg import SnPoly, Species, differentiate

__all__ = ["LamePolynomial", "matrix_size", "build_matrix", "solve", "apply_operator"]


@dataclass(frozen=True)
class LamePolynomial:
    """One eigenstate of the one-coordinate operator.

    Attributes
    ----------
    ell : int
        Degree of the parent harmonic.
    species : Species
        Prefactor letters.
    n : int
        Node count on the requested coordinate side.
    h : float
        Separation eigenvalue.
    poly : SnPoly
        The full block (prefactor and polynomial part), coeffs[0] = 1.
    """

    ell: int
    species: Species
    n: int
    h: float
    poly: SnPoly


def matrix_size(ell: int, species: Species) -> int:
    """Dimension of the invariant polynomial family for (ell, species).

    The letter count must have the parity of ell (WrongKind otherwise).
    Across the four species of matching parity the sizes sum to 2*ell + 1.
    """
    if ell < 0:
        raise ValueError(f"degree must be nonnegative, got {ell}")
    n_letters = len(species.letters)
    if (ell - n_letters) % 2 != 0:
        raise WrongKind(
            f"species {species.tag(1)!r} has wrong parity for degree {ell}"
        )
    if ell % 2 == 0:
        return ell // 2 + 1 if n_letters == 0 else ell // 2
    return (ell + 1) // 2 if n_letters == 1 else (ell - 1) // 2


def apply_operator(p: SnPoly, ell: int) -> SnPoly:
    """Image of a block under -d^2/dchi^2 + l(l+1) k^2 sn^2."""
    minus_dd = differentiate(differentiate(p))
    shifted = (0.0,) + p.coeffs  # multiplication by sn^2
    n = max(len(minus_dd.coeffs), len(shifted))
    lam = ell * (ell + 1) * p.ksq
    out = [0.0] * n
    for i, ci in enumerate(minus_dd.coeffs):
        out[i] -= ci
    for i, ci in enumerate(shifted):
        out[i] += lam * ci
    return SnPoly(p.species, tuple(out), p.ksq)


def build_matrix(ell: int, species: Species, ksq: float) -> np.ndarray:
    """Tridiagonal matrix of the operator on {prefactor * sn^(2s)}, s < N.

    Column j holds the coefficients of the image of basis element j. The
    top-degree coefficient of the last column cancels identically; a small
    numerical remainder there is asserted and dropped.
    """
    n = matrix_size(ell, species)
    mat = np.zeros((n, n))
    for j in range(n):
        basis = SnPoly(species, (0.0,) * j + (1.0,), ksq)
        image = apply_operator(basis, ell)
        coeffs = np.asarray(image.coeffs)
        if len(coeffs) > n:
            overflow = np.abs(coeffs[n:]).max()
            scale = max(np.abs(coeffs).max(), 1.0)
            if overflow > 1e-10 * scale:
                raise AssertionError(
                    f"family not invariant at degree {ell}: overflow {overflow:.3e}"
                )
            coeffs = coeffs[:n]
        mat[: len(coeffs), j] = coeffs
    return mat


def _coefficients(mat: np.ndarray, h: float) -> tuple[float, ...]:
    """Eigenvector from the three-term recurrence, normalized to a0 = 1."""
    n = mat.shape[0]
    a = np.zeros(n)
    a[0] = 1.0
    for i in range(n - 1):
        acc = (h - mat[i, i]) * a[i]
        if i > 0:
            acc -= mat[i, i - 1] * a[i - 1]
        step = mat[i, i + 1]
        if abs(step) < 1e-12:
            raise DegenerateEigenvalues(
                f"vanishing recurrence step at row {i}; cannot normalize to a0 = 1"
            )
        a[i + 1] = acc / step
    return tuple(a)


def _wang_block(ell: int, species: Species, ksq: float) -> tuple[list[int], list[int], int]:
    """The species block of Lx^2 + ksq Ly^2, whose eigenvalues are the h.

    In |l, m> the operator is ((1+k)/2)(l(l+1) - m^2) + ((1-k)/4)(L+^2 + L-^2)
    with k = ksq, real symmetric and tridiagonal in steps of two in m. The
    Wang combinations (|K> + sigma |-K>)/sqrt 2, K >= 0, split it into four
    blocks by the D2 characters that the prefactor letters carry (dn, cn, sn
    are odd in x, y, z): K is odd when exactly one of dn and cn is present,
    and sigma = (-1)^l p_y p_z with p_y = -1 if cn is present, p_z = -1 if sn
    is present; K = 0 exists only for sigma = +1.

    ksq is a binary fraction num/den, so with scale = 4 den the scaled
    diagonal and squared off-diagonal entries are integers. Returns
    (diagonal, squared off-diagonal, scale).
    """
    num, den = float(ksq).as_integer_ratio()
    half_plus, quarter_minus = 2 * (den + num), den - num  # scale (1+k)/2, scale (1-k)/4
    c = ell * (ell + 1)
    sigma = (-1) ** (ell + species.has_c + species.has_s)
    first = 1 if species.has_d != species.has_c else (0 if sigma > 0 else 2)
    ks = range(first, ell + 1, 2)
    diag = [half_plus * (c - k * k) + (sigma * quarter_minus * c if k == 1 else 0) for k in ks]
    off2 = [
        quarter_minus**2 * (c - k * (k + 1)) * (c - (k + 1) * (k + 2)) * (2 if k == 0 else 1)
        for k in ks[:-1]
    ]
    return diag, off2, 4 * den


def _nearest_root(diag: list[int], off2: list[int], scale: int, rank: int, guess: float) -> float:
    """The float nearest (ties to even) to the rank-th smallest root of the
    block (diag, off2, scale) from _wang_block.

    A float eigensolver's guess is off by a few ulps of the block norm,
    which the ill-conditioned basis inversions in the ladders amplify, so
    the root is bracketed and bisected on the exact characteristic sign:
    near root ``rank``, det(x - block) has the sign (-1)^(n - 1 - rank)
    above it and the opposite below.
    """
    orient = (-1) ** (len(diag) - 1 - rank)

    def side(x) -> int:
        """Sign of x - root for a float or Fraction x, from det(x - block)."""
        num, den = x.as_integer_ratio()
        xs = scale * num
        prev, cur = 1, xs - den * diag[0]
        for d, b in zip(diag[1:], off2):
            prev, cur = cur, (xs - den * d) * cur - den * den * b * prev
        return orient * ((cur > 0) - (cur < 0))

    lo = hi = float(guess)
    step = math.ulp(guess)
    while side(lo) > 0:
        lo, step = lo - step, 2 * step
    step = math.ulp(guess)
    while side(hi) < 0:
        hi, step = hi + step, 2 * step
    while lo < (mid := (lo + hi) / 2) < hi:
        if side(mid) >= 0:
            hi = mid
        else:
            lo = mid
    exact_mid = (Fraction(lo) + Fraction(hi)) / 2
    above = side(exact_mid)
    return lo if above > 0 else hi if above < 0 else float(exact_mid)


@lru_cache(maxsize=None)
def _solve_cached(ell: int, species: Species, ksq: float) -> tuple[tuple[float, tuple[float, ...]], ...]:
    n = matrix_size(ell, species)
    if n == 0:
        return ()
    mat = build_matrix(ell, species, ksq)
    diag, off2, unit = _wang_block(ell, species, ksq)
    off = [math.sqrt(b) / unit for b in off2]
    block = np.diag([d / unit for d in diag]) + np.diag(off, 1) + np.diag(off, -1)
    guesses = np.linalg.eigvalsh(block)
    hs = np.array([_nearest_root(diag, off2, unit, r, g) for r, g in enumerate(guesses)])
    scale = max(1.0, float(np.abs(hs).max()))
    if n > 1 and np.diff(hs).min() < 1e-13 * scale:
        raise DegenerateEigenvalues(
            f"eigenvalue spacing below tolerance in species {species.tag(1)!r} at degree {ell}"
        )
    return tuple((float(h), _coefficients(mat, float(h))) for h in hs)


def solve(ell: int, species: Species, ksq: float, side: int = 1) -> list[LamePolynomial]:
    """All eigenstates for (ell, species, ksq), ordered by ascending h.

    Node counts follow the species ladder of the requested coordinate side:
    n = node_base(side) + 2 * rank. The polynomial blocks themselves do not
    depend on the side.
    """
    pairs = _solve_cached(ell, species, ksq)
    base = species.node_base(side)
    return [
        LamePolynomial(
            ell=ell,
            species=species,
            n=base + 2 * rank,
            h=h,
            poly=SnPoly(species, coeffs, ksq),
        )
        for rank, (h, coeffs) in enumerate(pairs)
    ]
