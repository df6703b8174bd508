"""Exact algebra for products of Jacobi factors and polynomials in sn^2.

A one-coordinate building block is ``F(chi) * P(sn^2 chi)`` where the
prefactor F is a product of distinct letters from {sn, cn, dn} (the species)
and P is a real polynomial in u = sn^2. Differentiation, multiplication by a
single letter, and division by the two-coordinate metric factor
W = 1 - k1^2 u - k2^2 v all stay inside this family, which is what makes the
ladder decompositions exact rather than numerical.

Conventions: polynomial coefficients are shifted Chebyshev coefficients,
lowest order first, so ``coeffs[s]`` multiplies T_s(2u - 1) and
``coeffs[s, t]`` of a two-coordinate block multiplies T_s(2u - 1) T_t(2v - 1).
Unlike the powers u^s, this basis stays well conditioned on [0, 1] at every
degree. P(0) = sum_s (-1)^s coeffs[s], so the eigenpolynomial normalization
a0 = 1 means P(0) = 1.

One axis kernel (``times_square``, ``chain_rule`` and the node transform of
``divide_by_scale``) acts on the rows of the last two axes of a coefficient
array; a polynomial in one coordinate is its one-column case, a block's
second axis its swapped view. Any leading axes stack blocks of one species
pair, so a whole family goes through each kernel in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import jacobi
from .errors import NotDivisible, Singular

__all__ = [
    "Species",
    "SnPoly",
    "BiSnPoly",
    "differentiate",
    "mul_factor",
    "times_square",
    "chain_rule",
    "divide_by_scale",
    "invert_basis",
]

_LETTERS = "scd"
# Tag alphabets per coordinate side, matching the conventional state labels:
# the first coordinate lists d before c before s, the second the reverse.
_SIDE_ORDER = {1: "dcs", 2: "scd"}

_TRIM_RTOL = 1e-12


@dataclass(frozen=True)
class Species:
    """Which letters of {sn, cn, dn} appear (squarefree) in a prefactor."""

    has_s: bool = False
    has_c: bool = False
    has_d: bool = False

    @classmethod
    def from_tag(cls, tag: str) -> "Species":
        """Parse a tag like '1', 'd', 'sc', 'dcs' (letter order free)."""
        tag = tag.strip()
        if tag == "1":
            return cls()
        letters = set(tag)
        if not letters or not letters <= set(_LETTERS) or len(tag) != len(letters):
            raise ValueError(f"bad species tag {tag!r}")
        return cls("s" in letters, "c" in letters, "d" in letters)

    @property
    def letters(self) -> str:
        return "".join(x for x in _LETTERS if getattr(self, f"has_{x}"))

    def tag(self, side: int = 2) -> str:
        """Tag string in the letter order conventional for the given side."""
        out = "".join(x for x in _SIDE_ORDER[side] if getattr(self, f"has_{x}"))
        return out or "1"

    @property
    def parity(self) -> tuple[int, int, int]:
        """Exponent parities (eps_s, eps_c, eps_d) of the prefactor."""
        return (int(self.has_s), int(self.has_c), int(self.has_d))

    def node_base(self, side: int) -> int:
        """Smallest node count of the species ladder on coordinate ``side``."""
        if side == 1:
            return int(self.has_c) + int(self.has_s)
        if side == 2:
            return int(self.has_s)
        raise ValueError(f"side must be 1 or 2, got {side!r}")

    def flipped(self, letters: str) -> "Species":
        """Species with the parity of each listed letter toggled."""
        s, c, d = self.has_s, self.has_c, self.has_d
        for x in letters:
            if x == "s":
                s = not s
            elif x == "c":
                c = not c
            elif x == "d":
                d = not d
            else:
                raise ValueError(f"bad letter {x!r}")
        return Species(s, c, d)

    def partner(self) -> "Species":
        """Species paired on the other coordinate (swap sn and dn roles)."""
        return Species(self.has_d, self.has_c, self.has_s)

    def __str__(self) -> str:
        return self.tag(2)


# ---------------------------------------------------------------------------
# The axis kernel: every function acts on the rows of the last two axes.


@lru_cache(maxsize=128)
def _u_matrix(n: int) -> np.ndarray:
    """u * P on n coefficients, banded: u T_j = T_j / 2 + (T_(j+1) + T_|j-1|) / 4
    with x = 2u - 1. Maps n coefficients to n + 1."""
    mat = np.zeros((n + 1, n))
    j = np.arange(n)
    mat[j, j] = 0.5
    mat[j + 1, j] += 0.25
    mat[np.abs(j - 1), j] += 0.25
    mat.setflags(write=False)
    return mat


def times_square(c: np.ndarray, letter: str, ksq: float) -> np.ndarray:
    """P times sn^2 = u, cn^2 = 1 - u or dn^2 = 1 - k^2 u (letter 's'/'c'/'d')."""
    const, slope = {"s": (0.0, 1.0), "c": (1.0, -1.0), "d": (1.0, -ksq)}[letter]
    out = slope * (_u_matrix(c.shape[-2]) @ c)
    if const:
        out[..., :-1, :] += const * c
    return out


def chain_rule(c: np.ndarray, species: Species, ksq: float) -> np.ndarray:
    """Polynomial part of d/dchi (F P), F the species prefactor.

    The chain rule on sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn toggles
    every letter of F and leaves t P + 2 chain dP/du, where chain is the
    product of the present letters' squares and t has one term per present
    letter: its slope (1, -1, -k^2 for s, c, d) times the squares of the
    other present letters.
    """
    return _chain_matrix(species, ksq, c.shape[-2]) @ c


@lru_cache(maxsize=256)
def _chain_matrix(species: Species, ksq: float, n: int) -> np.ndarray:
    """``chain_rule`` on n coefficients, as the matrix of its columns."""
    # d/du T_j(2u - 1) = sum over k < j with j - k odd of 4j T_k, the k = 0
    # term halved: n coefficients go to n - 1 (one zero when n = 1).
    j = np.arange(n)
    k = j[: max(n - 1, 1), None]
    out = np.where((j > k) & ((j - k) % 2 == 1), 8.0 * j, 0.0)  # 2 d/du
    out[0] /= 2.0
    letters = species.letters
    slope = {"s": 1.0, "c": -1.0, "d": -ksq}
    eye = np.eye(n)
    for x in letters:
        out = times_square(out, x, ksq)
    for x in letters:
        term = slope[x] * eye
        for y in letters:
            if y != x:
                term = times_square(term, y, ksq)
        out = _add(out, term)
    out.setflags(write=False)
    return out


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two coefficient arrays, the shorter zero-padded."""
    if a.shape == b.shape:
        return a + b
    out = np.zeros(np.maximum(a.shape, b.shape))
    out[tuple(slice(0, s) for s in a.shape)] += a
    out[tuple(slice(0, s) for s in b.shape)] += b
    return out


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing rows and columns below 1e-12 of every block's largest coefficient."""
    mag = np.abs(c)
    live = mag > _TRIM_RTOL * mag.max(axis=(-2, -1), keepdims=True)
    live = live.reshape((-1,) + c.shape[-2:]).any(axis=0)
    rows = np.flatnonzero(live.any(axis=1))
    cols = np.flatnonzero(live.any(axis=0))
    return c[..., : rows[-1] + 1 if rows.size else 1, : cols[-1] + 1 if cols.size else 1]


def _vander(u, n: int) -> np.ndarray:
    """(T_0, ..., T_(n-1)) at 2u - 1, along a last axis added to u's shape."""
    u = np.asarray(u, dtype=float)
    return np.polynomial.chebyshev.chebvander(2.0 * u - 1.0, n - 1).reshape(u.shape + (n,))


@lru_cache(maxsize=128)
def _node_transform(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigendecomposition of the truncated multiply-by-u matrix.

    Multiplying by u and dropping the T_n term keeps the values at the roots
    x_k = cos(theta_k), theta_k = (2k + 1) pi / 2n, of T_n, so that map is
    inv(E) diag((1 + x_k) / 2) E with E[k, j] = T_j(x_k) = cos(j theta_k),
    and inv(E) = diag(1, 2, ..., 2) E^T / n by discrete orthogonality.
    Returns (E, inv(E)).
    """
    theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    fwd = np.cos(np.outer(theta, np.arange(n)))
    inv = fwd.T * (2.0 / n)
    inv[0] /= 2.0
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv


# ---------------------------------------------------------------------------
# One-coordinate blocks: the one-column case of the kernel


@dataclass(frozen=True)
class SnPoly:
    """One-coordinate block: species prefactor times a polynomial in sn^2."""

    species: Species
    coeffs: tuple[float, ...]
    ksq: float

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("coefficient tuple must be nonempty")
        object.__setattr__(self, "coeffs", tuple(float(x) for x in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, chi) -> np.ndarray | float:
        """Value F(chi) * P(sn^2 chi) at real argument(s) chi."""
        sn, cn, dn = jacobi(chi, self.ksq)
        eps_s, eps_c, eps_d = self.species.parity
        pref = np.asarray(sn) ** eps_s * np.asarray(cn) ** eps_c * np.asarray(dn) ** eps_d
        out = pref * self.poly_value(np.asarray(sn) ** 2)
        return float(out) if np.ndim(chi) == 0 else out

    def poly_value(self, u) -> np.ndarray | float:
        """Value of the bare polynomial part at u = sn^2."""
        return _vander(u, len(self.coeffs)) @ np.asarray(self.coeffs)


def differentiate(p: SnPoly) -> SnPoly:
    """Exact d/dchi of a one-coordinate block (see ``chain_rule``)."""
    q = _trim(chain_rule(np.asarray(p.coeffs)[:, None], p.species, p.ksq))
    return SnPoly(p.species.flipped("scd"), q[:, 0].tolist(), p.ksq)


def mul_factor(p: SnPoly, letter: str) -> SnPoly:
    """Multiply a block by a single letter sn, cn or dn (given as 's'/'c'/'d').

    If the letter is absent it joins the prefactor; if present, the square
    folds into the polynomial part (u, 1-u, or 1-k^2 u respectively).
    """
    if letter not in _LETTERS:
        raise ValueError(f"letter must be one of 's','c','d', got {letter!r}")
    species = p.species.flipped(letter)
    if not getattr(p.species, f"has_{letter}"):
        return SnPoly(species, p.coeffs, p.ksq)
    q = times_square(np.asarray(p.coeffs)[:, None], letter, p.ksq)
    return SnPoly(species, q[:, 0].tolist(), p.ksq)


# ---------------------------------------------------------------------------
# Two-coordinate blocks


@dataclass(frozen=True, eq=False)
class BiSnPoly:
    """Two-coordinate block: prefactors on both sides times P(u, v).

    ``coeffs[s, t]`` multiplies T_s(2u - 1) T_t(2v - 1) with
    u = sn^2(chi1 | k1^2) and v = sn^2(chi2 | k2^2). Leading axes, if any,
    stack blocks of one species pair for the algebra below.
    """

    species_a: Species
    species_b: Species
    coeffs: np.ndarray
    k1sq: float
    k2sq: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim < 2:
            arr = np.atleast_2d(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_product(cls, pa: SnPoly, pb: SnPoly) -> "BiSnPoly":
        coeffs = np.outer(pa.coeffs, pb.coeffs)
        return cls(pa.species, pb.species, coeffs, pa.ksq, pb.ksq)

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def scaled(self, factor: float) -> "BiSnPoly":
        return BiSnPoly(self.species_a, self.species_b, factor * self.coeffs, self.k1sq, self.k2sq)

    def plus(self, other: "BiSnPoly") -> "BiSnPoly":
        if (self.species_a, self.species_b) != (other.species_a, other.species_b):
            raise ValueError("cannot add blocks of different species")
        out = _add(self.coeffs, other.coeffs)
        return BiSnPoly(self.species_a, self.species_b, out, self.k1sq, self.k2sq)

    def trimmed(self) -> "BiSnPoly":
        return BiSnPoly(self.species_a, self.species_b, _trim(self.coeffs), self.k1sq, self.k2sq)

    def evaluate_grid(self, chi1, chi2) -> np.ndarray:
        """Values on the outer grid of two 1-d argument arrays."""
        ja = jacobi(np.asarray(chi1, dtype=float), self.k1sq)
        jb = jacobi(np.asarray(chi2, dtype=float), self.k2sq)
        return self.evaluate_triples(ja, jb)

    def evaluate_triples(self, ja, jb) -> np.ndarray:
        """Values from precomputed (sn, cn, dn) triples on each side."""
        ea = self.species_a.parity
        eb = self.species_b.parity
        fa = ja.sn**ea[0] * ja.cn**ea[1] * ja.dn**ea[2]
        fb = jb.sn**eb[0] * jb.cn**eb[1] * jb.dn**eb[2]
        u = np.asarray(ja.sn) ** 2
        v = np.asarray(jb.sn) ** 2
        up = _vander(np.atleast_1d(u), self.coeffs.shape[0])
        vp = _vander(np.atleast_1d(v), self.coeffs.shape[1])
        poly = up @ self.coeffs @ vp.T
        return np.outer(fa, fb) * poly

    def evaluate(self, chi1: float, chi2: float) -> float:
        return float(self.evaluate_grid([chi1], [chi2])[0, 0])


def _side_op(p: BiSnPoly, axis: int, letters: str, kernel=None) -> BiSnPoly:
    """Toggle letters of one side's species; apply kernel(c, species, ksq) on its axis."""
    species, ksq = (p.species_a, p.k1sq) if axis == 0 else (p.species_b, p.k2sq)
    coeffs = p.coeffs if axis == 0 else np.swapaxes(p.coeffs, -1, -2)
    if kernel is not None:
        coeffs = kernel(coeffs, species, ksq)
    if axis == 0:
        return BiSnPoly(species.flipped(letters), p.species_b, coeffs, p.k1sq, p.k2sq)
    coeffs = np.swapaxes(coeffs, -1, -2)
    return BiSnPoly(p.species_a, species.flipped(letters), coeffs, p.k1sq, p.k2sq)


def d_chi1(p: BiSnPoly) -> BiSnPoly:
    """Exact partial derivative in the first coordinate."""
    return _side_op(p, 0, "scd", chain_rule).trimmed()


def d_chi2(p: BiSnPoly) -> BiSnPoly:
    """Exact partial derivative in the second coordinate."""
    return _side_op(p, 1, "scd", chain_rule).trimmed()


def mul_factor_bi(p: BiSnPoly, letter: str, side: int) -> BiSnPoly:
    """Multiply a two-coordinate block by one letter on one side."""
    if letter not in _LETTERS:
        raise ValueError(f"letter must be one of 's','c','d', got {letter!r}")
    axis = 0 if side == 1 else 1
    if not getattr(p.species_a if axis == 0 else p.species_b, f"has_{letter}"):
        return _side_op(p, axis, letter)
    return _side_op(p, axis, letter, lambda c, species, ksq: times_square(c, letter, ksq))


def divide_by_scale(p: BiSnPoly) -> BiSnPoly:
    """Divide a block by the metric factor W = 1 - k1^2 u - k2^2 v, exactly.

    The quotient Q, of the dividend's shape, solves
    (I - k1^2 U) Q - k2^2 Q U^T = C with U the truncated multiply-by-u
    matrix; in values at the Chebyshev nodes of each axis (see
    ``_node_transform``) that is one pointwise division by W. Multiplying
    back verifies it: a remainder above 1e-10 of the dividend scale raises
    NotDivisible, per block of a stack. The same remainder, restricted to the
    dividend's shape, gives one refinement step.
    """
    a, b = p.k1sq, p.k2sq
    c = p.coeffs
    ns, nt = c.shape[-2:]
    fwd_u, inv_u = _node_transform(ns)
    fwd_v, inv_v = _node_transform(nt)
    # W at the nodes, transformed from its coefficients like the dividend
    # rather than evaluated, so that both carry the same rounding (a
    # dividend equal to -W divides to exactly -1).
    w = np.zeros((ns + 1, nt + 1))
    w[0, 0], w[1, 0], w[0, 1] = 1.0 - 0.5 * (a + b), -0.5 * a, -0.5 * b
    w_nodes = fwd_u @ w[:ns, :nt] @ fwd_v.T

    def solve(rhs: np.ndarray) -> np.ndarray:
        return inv_u @ ((fwd_u @ rhs @ fwd_v.T) / w_nodes) @ inv_v.T

    q = _trim(solve(c))
    # multiply back: W * Q has one extra degree in each variable
    m, n = q.shape[-2:]
    wq = np.zeros(c.shape[:-2] + (ns + 1, nt + 1))
    wq[..., :m, :n] += q
    wq[..., :ns, :nt] -= c
    wq[..., : m + 1, :n] -= a * (_u_matrix(m) @ q)
    wq[..., :m, : n + 1] -= b * (q @ _u_matrix(n).T)
    worst, cmax, qmax = (np.abs(x).max(axis=(-2, -1)) for x in (wq, c, q))
    scale = np.maximum(np.maximum(cmax, qmax), 1.0)
    failed = np.flatnonzero(~(worst <= 1e-10 * scale))  # a NaN fails too
    if failed.size:
        i = failed[0]
        raise NotDivisible(
            f"remainder {worst.flat[i]:.3e} exceeds 1e-10 of scale {scale.flat[i]:.3e}"
        )
    q = _add(q, -solve(wq[..., :ns, :nt]))
    return BiSnPoly(p.species_a, p.species_b, q, p.k1sq, p.k2sq).trimmed()


def invert_basis(matrix: np.ndarray) -> np.ndarray:
    """Invert a small basis-change matrix, guarding the conditioning.

    Raises Singular when the condition number exceeds 1e12.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > 1e12:
        raise Singular(f"condition number {cond:.3e} exceeds 1e12")
    return np.linalg.inv(m)
