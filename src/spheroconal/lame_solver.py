"""Polynomial eigenfunctions of the one-coordinate equation.

For each degree l and species prefactor, the operator
``-d^2/dchi^2 + l(l+1) k^2 sn^2(chi)`` maps the finite family
{prefactor * T_j(2 sn^2 - 1)} into itself (shifted Chebyshev polynomials,
see ``polyalg``). Each eigenpolynomial is the null vector of that matrix
minus its eigenvalue h, normalized to P(0) = 1 (a0 = 1); the pairs (h, P)
are used to assemble the two-coordinate harmonics.

That matrix is non-normal, so the eigenvalues come instead from the same
spectrum in a well-conditioned form: the h of a species are the
eigenvalues of one real symmetric Wang block of Lx^2 + k^2 Ly^2 (Wang 1929;
King, Hainer & Cross 1943), each rounded to the nearest float by exact
integer arithmetic.

Energies need only the h, so eigenvalues and eigenpolynomials have separate
bounded caches: ``solve`` fills the first, and the polynomials of a species
are built the first time any member's ``LamePolynomial.poly`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateEigenvalues, WrongKind
from .polyalg import SnPoly, Species, chain_rule, differentiate, mul_factor, times_square

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
    ksq : float
        Squared modulus of the coordinate.
    rank : int
        Position of h among the eigenvalues of (ell, species, ksq), ascending.
    """

    ell: int
    species: Species
    n: int
    h: float
    ksq: float
    rank: int

    @cached_property
    def poly(self) -> SnPoly:
        """The full block (prefactor and polynomial part), P(0) = 1.

        Built for the whole species on first read; later reads return the
        same object.
        """
        return _eigenpolynomials(self.ell, self.species, self.ksq)[self.rank]


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
    dd = differentiate(differentiate(p)).coeffs
    usq = mul_factor(mul_factor(p, "s"), "s").coeffs  # sn^2 times the block
    out = np.zeros(max(len(dd), len(usq)))
    out[: len(usq)] += ell * (ell + 1) * p.ksq * np.asarray(usq)
    out[: len(dd)] -= dd
    return SnPoly(p.species, tuple(out), p.ksq)


def build_matrix(ell: int, species: Species, ksq: float) -> np.ndarray:
    """Matrix of the operator on {prefactor * T_j(2 sn^2 - 1)}, j < N.

    Column j holds the coefficients of the image of basis element j; the
    polyalg kernel maps all columns of the identity at once. The
    coefficients above N cancel identically; a small numerical remainder
    there is asserted and dropped.
    """
    n = matrix_size(ell, species)
    eye = np.eye(n)
    image = -chain_rule(chain_rule(eye, species, ksq), species.flipped("scd"), ksq)
    image[: n + 1] += ell * (ell + 1) * ksq * times_square(eye, "s", ksq)
    overflow = np.abs(image[n:]).max(initial=0.0)
    if overflow > 1e-10 * max(np.abs(image).max(), 1.0):
        raise AssertionError(
            f"family not invariant at degree {ell}: overflow {overflow:.3e}"
        )
    return image[:n]


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

    A float eigensolver's guess is off by a few ulps of the block norm, and
    by different ulps on different LAPACK builds. Rounding correctly makes
    every h reproducible, as the README promises, so the root is bracketed
    and bisected on the exact characteristic sign: near root ``rank``,
    det(x - block) has the sign (-1)^(n - 1 - rank) above it and the
    opposite below. The sign at the guess tells on which
    side of it the root lies, and the bracket is walked out on that side only.
    """
    orient = (-1) ** (len(diag) - 1 - rank)

    def side(num: int, den: int) -> int:
        """Sign of x - root at x = num/den (den > 0), from det(x - block)."""
        xs = scale * num
        prev, cur = 1, xs - den * diag[0]
        for d, b in zip(diag[1:], off2):
            prev, cur = cur, (xs - den * d) * cur - den * den * b * prev
        return orient * ((cur > 0) - (cur < 0))

    def side_at(x: float) -> int:
        return side(*x.as_integer_ratio())

    lo = hi = float(guess)
    above = side_at(lo)
    if above == 0:
        return lo
    step = math.ulp(lo)
    if above > 0:
        while side_at(lo := hi - step) > 0:
            hi, step = lo, 2 * step
    else:
        while side_at(hi := lo + step) < 0:
            lo, step = hi, 2 * step
    while lo < (mid := (lo + hi) / 2) < hi:
        if side_at(mid) >= 0:
            hi = mid
        else:
            lo = mid
    # lo and hi are neighbours, and mid is the one with an even last bit.
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    above = side(a * d + c * b, 2 * b * d)
    return lo if above > 0 else hi if above < 0 else mid


@lru_cache(maxsize=2048)
def _eigenvalues(ell: int, species: Species, ksq: float) -> tuple[float, ...]:
    """The h of (ell, species, ksq), ascending, each correctly rounded."""
    if matrix_size(ell, species) == 0:
        return ()
    diag, off2, unit = _wang_block(ell, species, ksq)
    off = [math.sqrt(b) / unit for b in off2]
    block = np.diag([d / unit for d in diag]) + np.diag(off, 1) + np.diag(off, -1)
    guesses = np.linalg.eigvalsh(block)
    hs = [_nearest_root(diag, off2, unit, r, g) for r, g in enumerate(guesses)]
    scale = max(1.0, max(abs(h) for h in hs))
    if len(hs) > 1 and min(b - a for a, b in zip(hs, hs[1:])) < 1e-13 * scale:
        raise DegenerateEigenvalues(
            f"eigenvalue spacing below tolerance in species {species.tag(1)!r} at degree {ell}"
        )
    return tuple(hs)


@lru_cache(maxsize=2048)
def _eigenpolynomials(ell: int, species: Species, ksq: float) -> tuple[SnPoly, ...]:
    """The blocks of (ell, species, ksq) in the order of ``_eigenvalues``."""
    hs = np.array(_eigenvalues(ell, species, ksq))
    n = len(hs)
    mat = build_matrix(ell, species, ksq)
    # Null vectors of mat - h I with P(0) = sum_j (-1)^j c_j = 1, from the
    # consistent full-rank bordered systems [mat - h I; (-1)^j] c = e_n by one
    # batched QR (a quarter of the cost of SVD null vectors, equal to 2e-13).
    # The rounding left in P(0) goes into the smallest coefficient.
    signs = (-1.0) ** np.arange(n)
    bordered = np.concatenate(
        [mat - hs[:, None, None] * np.eye(n), np.broadcast_to(signs, (n, 1, n))], axis=1
    )
    q, r = np.linalg.qr(bordered)
    vecs = np.linalg.solve(r, q[:, -1, :, None])[..., 0]
    vecs /= (vecs @ signs)[:, None]
    for c in vecs:
        j = np.argmin(np.abs(c))
        c[j] += signs[j] * (1.0 - math.fsum(c * signs))
    return tuple(SnPoly(species, tuple(v.tolist()), ksq) for v in vecs)


def solve(ell: int, species: Species, ksq: float, side: int = 1) -> list[LamePolynomial]:
    """All eigenstates for (ell, species, ksq), ordered by ascending h.

    Node counts follow the species ladder of the requested coordinate side:
    n = node_base(side) + 2 * rank. The polynomial blocks themselves do not
    depend on the side, and are built when one is first read.
    """
    base = species.node_base(side)
    return [
        LamePolynomial(ell=ell, species=species, n=base + 2 * rank, h=h, ksq=ksq, rank=rank)
        for rank, h in enumerate(_eigenvalues(ell, species, ksq))
    ]
