"""Exact algebra for products of Jacobi factors and polynomials in sn^2.

A one-coordinate building block is ``F(chi) * P(sn^2 chi)`` where the
prefactor F is a product of distinct letters from {sn, cn, dn} (the species)
and P is a real polynomial in u = sn^2. Differentiation, multiplication by a
single letter, and division by the two-coordinate metric factor
W = 1 - k1^2 u - k2^2 v all stay inside this family, which is what makes the
ladder decompositions exact rather than numerical.

Conventions: polynomial coefficients are stored lowest power first, so
``coeffs[s]`` multiplies u^s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import jacobi
from .errors import NotDivisible, Singular

__all__ = [
    "Species",
    "SnPoly",
    "BiSnPoly",
    "differentiate",
    "mul_factor",
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
# Plain polynomial helpers (lowest power first, tuples of float)


def _ptrim(c: tuple[float, ...]) -> tuple[float, ...]:
    scale = max((abs(x) for x in c), default=0.0)
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= _TRIM_RTOL * scale:
        n -= 1
    return tuple(c[:n])


def _pmul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _padd(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0) for i in range(n)
    )


def _pder(a: tuple[float, ...]) -> tuple[float, ...]:
    if len(a) == 1:
        return (0.0,)
    return tuple(i * a[i] for i in range(1, len(a)))


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
        u = np.asarray(sn) ** 2
        val = np.polynomial.polynomial.polyval(u, np.asarray(self.coeffs))
        eps_s, eps_c, eps_d = self.species.parity
        pref = np.asarray(sn) ** eps_s * np.asarray(cn) ** eps_c * np.asarray(dn) ** eps_d
        out = pref * val
        return float(out) if np.ndim(chi) == 0 else out

    def poly_value(self, u) -> np.ndarray | float:
        """Value of the bare polynomial part at u = sn^2."""
        return np.polynomial.polynomial.polyval(u, np.asarray(self.coeffs))


def differentiate(p: SnPoly) -> SnPoly:
    """Exact d/dchi of a one-coordinate block.

    The chain rule on sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn toggles
    every letter of the species and leaves a polynomial cofactor:
    one term per present letter plus 2 * (product of present squares) * P'.
    """
    eps_s, eps_c, eps_d = p.species.parity
    ksq = p.ksq
    one = (1.0,)
    u_pow = (0.0, 1.0) if eps_s else one
    c_pow = (1.0, -1.0) if eps_c else one
    d_pow = (1.0, -ksq) if eps_d else one

    t = (0.0,)
    if eps_s:
        t = _padd(t, _pmul(c_pow, d_pow))
    if eps_c:
        t = _padd(t, tuple(-x for x in _pmul(u_pow, d_pow)))
    if eps_d:
        t = _padd(t, tuple(-ksq * x for x in _pmul(u_pow, c_pow)))

    q = _pmul(p.coeffs, t)
    chain = _pmul(_pmul(u_pow, _pmul(c_pow, d_pow)), _pder(p.coeffs))
    q = _ptrim(_padd(q, tuple(2.0 * x for x in chain)))
    return SnPoly(p.species.flipped("scd"), q, ksq)


def mul_factor(p: SnPoly, letter: str) -> SnPoly:
    """Multiply a block by a single letter sn, cn or dn (given as 's'/'c'/'d').

    If the letter is absent it joins the prefactor; if present, the square
    folds into the polynomial part (u, 1-u, or 1-k^2 u respectively).
    """
    if letter not in _LETTERS:
        raise ValueError(f"letter must be one of 's','c','d', got {letter!r}")
    present = getattr(p.species, f"has_{letter}")
    species = p.species.flipped(letter)
    if not present:
        return SnPoly(species, p.coeffs, p.ksq)
    square = {"s": (0.0, 1.0), "c": (1.0, -1.0), "d": (1.0, -p.ksq)}[letter]
    return SnPoly(species, _pmul(p.coeffs, square), p.ksq)


# ---------------------------------------------------------------------------
# Two-coordinate blocks


@dataclass(frozen=True, eq=False)
class BiSnPoly:
    """Two-coordinate block: prefactors on both sides times P(u, v).

    ``coeffs[s, t]`` multiplies u^s v^t with u = sn^2(chi1 | k1^2) and
    v = sn^2(chi2 | k2^2).
    """

    species_a: Species
    species_b: Species
    coeffs: np.ndarray
    k1sq: float
    k2sq: float

    def __post_init__(self) -> None:
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
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
        s = max(self.coeffs.shape[0], other.coeffs.shape[0])
        t = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((s, t))
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        out[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return BiSnPoly(self.species_a, self.species_b, out, self.k1sq, self.k2sq)

    def trimmed(self) -> "BiSnPoly":
        c = self.coeffs
        scale = np.abs(c).max()
        tol = _TRIM_RTOL * scale
        rows = np.where(np.abs(c).max(axis=1) > tol)[0]
        cols = np.where(np.abs(c).max(axis=0) > tol)[0]
        s = rows.max() + 1 if rows.size else 1
        t = cols.max() + 1 if cols.size else 1
        return BiSnPoly(self.species_a, self.species_b, c[:s, :t], self.k1sq, self.k2sq)

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
        up = np.vander(np.atleast_1d(u), self.coeffs.shape[0], increasing=True)
        vp = np.vander(np.atleast_1d(v), self.coeffs.shape[1], increasing=True)
        poly = up @ self.coeffs @ vp.T
        return np.outer(fa, fb) * poly

    def evaluate(self, chi1: float, chi2: float) -> float:
        return float(self.evaluate_grid([chi1], [chi2])[0, 0])


def _apply_upoly(coeffs: np.ndarray, poly: tuple[float, ...], axis: int) -> np.ndarray:
    """Multiply a 2-d coefficient table by a u- (or v-) polynomial along one axis."""
    grow = len(poly) - 1
    shape = list(coeffs.shape)
    shape[axis] += grow
    out = np.zeros(shape)
    idx: list[slice] = [slice(None), slice(None)]
    for i, ci in enumerate(poly):
        if ci == 0.0:
            continue
        idx[axis] = slice(i, i + coeffs.shape[axis])
        out[tuple(idx)] += ci * coeffs
    return out


def _der_axis(coeffs: np.ndarray, axis: int) -> np.ndarray:
    """d/du (or d/dv) of the polynomial table along one axis."""
    n = coeffs.shape[axis]
    if n == 1:
        return np.zeros_like(coeffs)
    weights = np.arange(1, n)
    sl: list[slice] = [slice(None), slice(None)]
    sl[axis] = slice(1, None)
    chunk = coeffs[tuple(sl)]
    shape = [-1, 1] if axis == 0 else [1, -1]
    return chunk * weights.reshape(shape)


def _differentiate_axis(p: BiSnPoly, axis: int) -> BiSnPoly:
    species = p.species_a if axis == 0 else p.species_b
    ksq = p.k1sq if axis == 0 else p.k2sq
    eps_s, eps_c, eps_d = species.parity
    one = (1.0,)
    u_pow = (0.0, 1.0) if eps_s else one
    c_pow = (1.0, -1.0) if eps_c else one
    d_pow = (1.0, -ksq) if eps_d else one

    t = (0.0,)
    if eps_s:
        t = _padd(t, _pmul(c_pow, d_pow))
    if eps_c:
        t = _padd(t, tuple(-x for x in _pmul(u_pow, d_pow)))
    if eps_d:
        t = _padd(t, tuple(-ksq * x for x in _pmul(u_pow, c_pow)))

    out = _apply_upoly(p.coeffs, t, axis)
    chain_pref = _pmul(u_pow, _pmul(c_pow, d_pow))
    chain = _apply_upoly(2.0 * _der_axis(p.coeffs, axis), chain_pref, axis)
    s = max(out.shape[0], chain.shape[0])
    tt = max(out.shape[1], chain.shape[1])
    total = np.zeros((s, tt))
    total[: out.shape[0], : out.shape[1]] += out
    total[: chain.shape[0], : chain.shape[1]] += chain

    new_a = species.flipped("scd") if axis == 0 else p.species_a
    new_b = species.flipped("scd") if axis == 1 else p.species_b
    if axis == 0:
        return BiSnPoly(new_a, p.species_b, total, p.k1sq, p.k2sq).trimmed()
    return BiSnPoly(p.species_a, new_b, total, p.k1sq, p.k2sq).trimmed()


def d_chi1(p: BiSnPoly) -> BiSnPoly:
    """Exact partial derivative in the first coordinate."""
    return _differentiate_axis(p, 0)


def d_chi2(p: BiSnPoly) -> BiSnPoly:
    """Exact partial derivative in the second coordinate."""
    return _differentiate_axis(p, 1)


def mul_factor_bi(p: BiSnPoly, letter: str, side: int) -> BiSnPoly:
    """Multiply a two-coordinate block by one letter on one side."""
    if letter not in _LETTERS:
        raise ValueError(f"letter must be one of 's','c','d', got {letter!r}")
    axis = 0 if side == 1 else 1
    species = p.species_a if axis == 0 else p.species_b
    ksq = p.k1sq if axis == 0 else p.k2sq
    present = getattr(species, f"has_{letter}")
    new_species = species.flipped(letter)
    coeffs = p.coeffs
    if present:
        square = {"s": (0.0, 1.0), "c": (1.0, -1.0), "d": (1.0, -ksq)}[letter]
        coeffs = _apply_upoly(coeffs, square, axis)
    if axis == 0:
        return BiSnPoly(new_species, p.species_b, coeffs, p.k1sq, p.k2sq)
    return BiSnPoly(p.species_a, new_species, coeffs, p.k1sq, p.k2sq)


def divide_by_scale(p: BiSnPoly, k1sq: float | None = None, k2sq: float | None = None) -> BiSnPoly:
    """Divide a block by the metric factor W = 1 - k1^2 u - k2^2 v, exactly.

    The quotient is produced by the forward recursion
    Q[s,t] = C[s,t] + k1^2 Q[s-1,t] + k2^2 Q[s,t-1] and then verified by
    multiplying back; a remainder above 1e-10 of the dividend scale raises
    NotDivisible.
    """
    a = p.k1sq if k1sq is None else k1sq
    b = p.k2sq if k2sq is None else k2sq
    if abs(a - p.k1sq) > 1e-14 or abs(b - p.k2sq) > 1e-14:
        raise ValueError("moduli disagree with the block's own moduli")
    c = p.coeffs
    ns, nt = c.shape
    q = np.zeros_like(c)
    for s in range(ns):
        for t in range(nt):
            acc = c[s, t]
            if s:
                acc += a * q[s - 1, t]
            if t:
                acc += b * q[s, t - 1]
            q[s, t] = acc
    # multiply back: W * Q has one extra degree in each variable
    wq = np.zeros((ns + 1, nt + 1))
    wq[:ns, :nt] += q
    wq[1 : ns + 1, :nt] -= a * q
    wq[:ns, 1 : nt + 1] -= b * q
    wq[:ns, :nt] -= c
    scale = max(float(np.abs(c).max()), float(np.abs(q).max()), 1.0)
    worst = float(np.abs(wq).max())
    if worst > 1e-10 * scale:
        raise NotDivisible(
            f"remainder {worst:.3e} exceeds 1e-10 of scale {scale:.3e}"
        )
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
