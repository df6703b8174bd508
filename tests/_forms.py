"""Closed-form reference values shared by the unit and acceptance tests.

Everything here was derived by hand (characteristic polynomials of the
small banded matrices, root formulas for the quadratics, the corrected
cubic for the degree-4 trivial species) and then cross-checked against
the solver and a grid oracle before being frozen. All eigenvalue lists
are ascending, matching the solver's ordering.
"""

import math

import numpy as np

from spheroconal.harmonics import evaluate

# Side-1 species tags per degree, in the order the closed forms below use.
SIDE1_TAGS = {
    0: ("1",),
    1: ("d", "c", "s"),
    2: ("dc", "ds", "cs", "1"),
    3: ("dcs", "d", "c", "s"),
    4: ("1", "dc", "ds", "cs"),
}


def cubic_roots(k):
    """Ascending roots of the degree-4 trivial-species characteristic cubic.

    The middle coefficient carries the square of (1 + k); a widely printed
    form of this cubic drops that square, which shifts the roots by order
    one. The corrected version below reproduces the solver and the
    spectral oracle.
    """
    poly = [1.0, -20.0 * (1 + k), 64.0 * (1 + k) ** 2 + 208.0 * k, -640.0 * k * (1 + k)]
    return sorted(np.roots(poly).real)


def printed_cubic_roots(k):
    """Roots of the uncorrected (as-printed) cubic, kept for the erratum check."""
    poly = [1.0, -20.0 * (1 + k), 64.0 * (1 + k) + 208.0 * k, -640.0 * k * (1 + k)]
    return sorted(np.roots(poly).real)


def h2pair(k):
    """Ascending degree-2 trivial-species eigenvalues at parameter k = k^2."""
    r = 2.0 * math.sqrt(1.0 - k * (1.0 - k))
    return 2.0 * (1 + k) - r, 2.0 * (1 + k) + r


def table2_h(ell, tag, k):
    """Ascending eigenvalues h for (degree, side-1 species tag, parameter k)."""
    if ell == 0:
        return [0.0]
    if ell == 1:
        return {"d": [k], "c": [1.0], "s": [1.0 + k]}[tag]
    if ell == 2:
        if tag == "1":
            return list(h2pair(k))
        return {"dc": [1 + k], "ds": [1 + 4 * k], "cs": [4 + k]}[tag]
    if ell == 3:
        if tag == "dcs":
            return [4.0 * (1 + k)]
        if tag == "d":
            r = 2.0 * math.sqrt(4 * k * k - k + 1)
            return [5 * k + 2 - r, 5 * k + 2 + r]
        if tag == "c":
            r = 2.0 * math.sqrt(4 - k * (1 - k))
            return [5 + 2 * k - r, 5 + 2 * k + r]
        if tag == "s":
            r = 2.0 * math.sqrt(4 * k * k - 7 * k + 4)
            return [5 * (1 + k) - r, 5 * (1 + k) + r]
    if ell == 4:
        if tag == "1":
            return cubic_roots(k)
        if tag == "dc":
            r = 2.0 * math.sqrt(4 + k + 4 * k * k)
            return [5 * (1 + k) - r, 5 * (1 + k) + r]
        if tag == "ds":
            r = 2.0 * math.sqrt(4 - 9 * k * (1 - k))
            return [5 * (1 + 2 * k) - r, 5 * (1 + 2 * k) + r]
        if tag == "cs":
            r = 2.0 * math.sqrt(9 - 9 * k + 4 * k * k)
            return [5 * (2 + k) - r, 5 * (2 + k) + r]
    raise KeyError((ell, tag))


def table2_ratios(ell, tag, k, h):
    """Coefficient ratios a_s / a_0 of the eigenpolynomial, lowest power first.

    Empty where the polynomial part is constant.
    """
    if ell == 2 and tag == "1":
        return [-h / 2]
    if ell == 3 and tag == "d":
        return [(k - h) / 2]
    if ell == 3 and tag == "c":
        return [(1 - h) / 2]
    if ell == 3 and tag == "s":
        return [(1 + k - h) / 6]
    if ell == 4 and tag == "1":
        return [-h / 2, 7 * k * h / (16 * (1 + k) - h)]
    if ell == 4 and tag == "dc":
        return [-(h - (1 + k)) / 2]
    if ell == 4 and tag == "ds":
        return [-(h - (1 + 4 * k)) / 6]
    if ell == 4 and tag == "cs":
        return [-(h - (4 + k)) / 6]
    return []


def energy_table(ell, e, k1, k2):
    """Reduced energies 2E* keyed by (cartesian label, n1, n2), degrees 0..4."""
    e1, e2, e3 = e
    if ell == 0:
        return {("1", 0, 0): 0.0}
    if ell == 1:
        return {("x", 0, 1): -e1, ("y", 1, 0): -e2, ("z", 1, 0): -e3}
    if ell == 2:
        return {
            ("1", 0, 2): -3.0,
            ("xy", 1, 1): 3 * e3,
            ("xz", 1, 1): 3 * e2,
            ("yz", 2, 0): 3 * e1,
            ("1", 2, 0): 3.0,
        }
    if ell == 3:
        out = {("xyz", 2, 1): 0.0}
        for lab, ei, (na, nb) in (("x", e1, (0, 3)), ("y", e2, (1, 2)), ("z", e3, (1, 2))):
            out[(lab, na, nb)] = -3 * ei - 3 * math.sqrt(5 - 4 * ei * ei)
        for lab, ei, (na, nb) in (("x", e1, (2, 1)), ("y", e2, (3, 0)), ("z", e3, (3, 0))):
            out[(lab, na, nb)] = -3 * ei + 3 * math.sqrt(5 - 4 * ei * ei)
        return out
    if ell == 4:
        r1, r2 = cubic_roots(k1), cubic_roots(k2)
        out = {
            ("1", 0, 4): e1 * r1[0] + e3 * r2[2],
            ("1", 2, 2): e1 * r1[1] + e3 * r2[1],
            ("1", 4, 0): e1 * r1[2] + e3 * r2[0],
        }
        for lab, ei in (("xy", e3), ("xz", e2), ("yz", e1)):
            lo = 2 if lab == "yz" else 1
            root = math.sqrt(21 + 60 * ei * ei)
            out[(lab, lo, 4 - lo)] = 5 * ei - root
            out[(lab, lo + 2, 2 - lo)] = 5 * ei + root
        return out
    raise KeyError(ell)


def angular_table_l2(k1):
    """Reference angular-momentum actions on the five degree-2 states.

    Returns (state keys, table) where table maps (row, axis) to a dict of
    target key -> coefficient. Signs follow the reference tabulation, whose
    per-state orientation differs from the a0 = 1 normalization used by the
    solver; the comparison therefore fits one global sign per state.
    """
    k2 = 1.0 - k1
    h0a, h2a = h2pair(k1)
    h0b, h2b = h2pair(k2)
    c1 = 1.0 / (h0a - h2a)
    keys = {
        "S1": ("1", 0, 2),
        "S2": ("xy", 1, 1),
        "S3": ("xz", 1, 1),
        "S4": ("yz", 2, 0),
        "S5": ("1", 2, 0),
    }
    table = {
        ("S1", "x"): {keys["S4"]: -h0a},
        ("S1", "y"): {keys["S3"]: h0a - h2b},
        ("S1", "z"): {keys["S2"]: h2b},
        ("S2", "x"): {keys["S3"]: 1.0},
        ("S2", "y"): {keys["S4"]: -1.0},
        ("S2", "z"): {keys["S5"]: c1 * (2 - h0a), keys["S1"]: -c1 * (2 - h2a)},
        ("S3", "x"): {keys["S2"]: -1.0},
        ("S3", "y"): {keys["S5"]: 2 * c1, keys["S1"]: -2 * c1},
        ("S3", "z"): {keys["S4"]: 1.0},
        ("S4", "x"): {keys["S5"]: c1 * (2 - h2b), keys["S1"]: -c1 * (2 - h0b)},
        ("S4", "y"): {keys["S2"]: 1.0},
        ("S4", "z"): {keys["S3"]: -1.0},
        ("S5", "x"): {keys["S4"]: -h2a},
        ("S5", "y"): {keys["S3"]: h2a - h0b},
        ("S5", "z"): {keys["S2"]: h0b},
    }
    return keys, table


def abar_d(h, k):
    """Linear coefficient of the degree-3 single-dn eigenpolynomial."""
    return (k - h) / 2.0


def angular_l3_row4(k1):
    """Derived coefficients of L_axis acting on the degree-3 (xyz) state.

    These follow from eliminating the bracket against the four single-letter
    eigenpolynomials; they match the solver coefficients directly, with no
    per-state sign freedom left.
    """
    k2 = 1.0 - k1
    hd1 = table2_h(3, "d", k1)
    hd2 = table2_h(3, "d", k2)
    hc1 = table2_h(3, "c", k1)
    a0, a2 = abar_d(hd1[0], k1), abar_d(hd1[1], k1)
    b0, b2 = abar_d(hd2[0], k2), abar_d(hd2[1], k2)
    return {
        ("x", ("x", 0, 3)): (2 + a2) / (a0 - a2),
        ("x", ("x", 2, 1)): -(2 + a0) / (a0 - a2),
        ("y", ("y", 1, 2)): -2.0 / (hc1[1] - hc1[0]),
        ("y", ("y", 3, 0)): 2.0 / (hc1[1] - hc1[0]),
        ("z", ("z", 1, 2)): (2 + b0) / (b0 - b2),
        ("z", ("z", 3, 0)): -(2 + b2) / (b0 - b2),
    }


def angular_l3_mono_printed(k1):
    """Reference single-term actions mapping degree-3 states onto (xyz).

    The final entry carries the sign exactly as printed in the reference
    table; the consistency fit in the acceptance suite shows that sign to
    be a misprint (see the erratum note there).
    """
    k2 = 1.0 - k1
    hd1 = table2_h(3, "d", k1)
    hd2 = table2_h(3, "d", k2)
    hc1 = table2_h(3, "c", k1)
    hc2 = table2_h(3, "c", k2)
    return {
        (("x", 0, 3), "x"): 2 * abar_d(hd1[0], k1),
        (("y", 1, 2), "y"): hc1[0] - hc2[1],
        (("z", 1, 2), "z"): -2 * abar_d(hd2[1], k2),
        (("x", 2, 1), "x"): 2 * abar_d(hd1[1], k1),
        (("y", 3, 0), "y"): hc1[1] - hc2[0],
        (("z", 3, 0), "z"): 2 * abar_d(hd2[0], k2),
    }


def _per_axis(coeffs, convert):
    """Apply a 1-d coefficient conversion along every axis, keeping the shape."""

    def padded(c):
        new = convert(c)
        return np.pad(new, (0, len(c) - len(new)))

    out = np.asarray(coeffs, dtype=float)
    for axis in range(out.ndim):
        out = np.apply_along_axis(padded, axis, out)
    return out


def to_monomial(coeffs):
    """Powers of u (lowest first) of shifted-Chebyshev coefficients, per axis."""
    P = np.polynomial
    return _per_axis(
        coeffs, lambda c: P.Chebyshev(c, domain=[0, 1]).convert(kind=P.Polynomial).coef
    )


def from_monomial(coeffs):
    """Shifted-Chebyshev coefficients of a polynomial in powers of u, per axis."""
    P = np.polynomial
    return _per_axis(
        coeffs, lambda c: P.Polynomial(c).convert(kind=P.Chebyshev, domain=[0, 1]).coef
    )


def multiply_by_scale(block):
    """Reference product of a two-coordinate block with W = 1 - k1^2 u - k2^2 v,
    formed on the power coefficients."""
    from spheroconal.polyalg import BiSnPoly

    c = to_monomial(block.coeffs)
    ns, nt = c.shape
    out = np.zeros((ns + 1, nt + 1))
    out[:ns, :nt] += c
    out[1:, :nt] -= block.k1sq * c
    out[:ns, 1:] -= block.k2sq * c
    return BiSnPoly(block.species_a, block.species_b, from_monomial(out), block.k1sq, block.k2sq)


def linear_l1_alphas(k1):
    """Projection coefficients of cos_x times a degree-1 state, as printed.

    Returns (alpha02, gamma02, alpha20, gamma20): the weights of the two
    trivial degree-2 states in cosine-times-state, and of the degree-0
    state in the complementary combination. beta (the cross term weight)
    is 1 by normalization.
    """
    k2 = 1.0 - k1
    h0a, h2a = h2pair(k1)
    h0b, h2b = h2pair(k2)
    alpha02 = -0.5 + h0a / 4.0 - h2b / 4.0
    gamma02 = -0.5 - h0a / 4.0 + h2b / 4.0
    alpha20 = -0.5 + h2a / 4.0 - h0b / 4.0
    gamma20 = -0.5 - h2a / 4.0 + h0b / 4.0
    return alpha02, gamma02, alpha20, gamma20


def fit_in_basis(field, basis):
    """Least-squares expansion of a sampled field over harmonic states.

    Returns (coefficients, relative rms residual). Raises ValueError when
    the Gram matrix condition number exceeds 1e10 (near-dependent columns).
    """
    if not basis:
        raise ValueError("basis must contain at least one state")
    design = np.column_stack([evaluate(s, field.chi1, field.chi2).ravel() for s in basis])
    cond = np.linalg.cond(design.T @ design)
    if not np.isfinite(cond) or cond > 1e10:
        raise ValueError(f"basis Gram condition number {cond:.3e} exceeds 1e10")
    target = field.values.ravel()
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    norm = float(np.linalg.norm(target))
    if norm == 0.0:
        return coeffs, 0.0
    return coeffs, float(np.linalg.norm(design @ coeffs - target)) / norm
