"""Exact block algebra: species bookkeeping, derivatives, scale division."""

import math

import numpy as np
import pytest

from spheroconal.elliptic import jacobi
from spheroconal.errors import NotDivisible, Singular
from spheroconal.polyalg import (
    BiSnPoly,
    SnPoly,
    Species,
    d_chi1,
    d_chi2,
    differentiate,
    divide_by_scale,
    invert_basis,
    mul_factor,
    mul_factor_bi,
)

from _forms import from_monomial, multiply_by_scale, to_monomial

ALL_TAGS = ("1", "s", "c", "d", "sc", "sd", "cd", "scd")


def random_block(rng, tag_a="sc", tag_b="d", k1sq=0.3, shape=(3, 3)):
    coeffs = rng.uniform(-1.0, 1.0, size=shape)
    return BiSnPoly(
        Species.from_tag(tag_a), Species.from_tag(tag_b), coeffs, k1sq, 1.0 - k1sq
    )


# ---------------------------------------------------------------------------
# Species


def test_species_tags_roundtrip_and_side_order():
    assert Species.from_tag("1").tag(1) == "1"
    assert Species.from_tag("cd").tag(1) == "dc"
    assert Species.from_tag("cd").tag(2) == "cd"
    assert Species.from_tag("scd").tag(1) == "dcs"
    assert str(Species.from_tag("dc")) == "cd"
    for tag in ALL_TAGS:
        sp = Species.from_tag(tag)
        assert Species.from_tag(sp.tag(1)) == sp
        assert Species.from_tag(sp.tag(2)) == sp


def test_species_bad_tags():
    for bad in ("q", "ss", "", "sq", "1s"):
        with pytest.raises(ValueError, match="bad species tag"):
            Species.from_tag(bad)


def test_species_node_bases():
    side1 = {"1": 0, "d": 0, "c": 1, "s": 1, "dc": 1, "ds": 1, "cs": 2, "dcs": 2}
    side2 = {"1": 0, "s": 1, "c": 0, "d": 0, "sc": 1, "sd": 1, "cd": 0, "scd": 1}
    for tag, base in side1.items():
        assert Species.from_tag(tag).node_base(1) == base, tag
    for tag, base in side2.items():
        assert Species.from_tag(tag).node_base(2) == base, tag
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        Species.from_tag("s").node_base(3)


def test_species_parity_flip_partner():
    sp = Species.from_tag("sc")
    assert sp.parity == (1, 1, 0)
    assert sp.flipped("scd") == Species.from_tag("d")
    assert sp.flipped("s") == Species.from_tag("c")
    # Partner swaps the sn and dn roles and fixes cn.
    assert Species.from_tag("dc").partner() == Species.from_tag("sc")
    assert Species.from_tag("1").partner() == Species.from_tag("1")
    assert Species.from_tag("scd").partner() == Species.from_tag("scd")


# ---------------------------------------------------------------------------
# One-coordinate blocks


def test_snpoly_rejects_empty_coeffs():
    with pytest.raises(ValueError, match="nonempty"):
        SnPoly(Species.from_tag("1"), (), 0.3)


def test_differentiate_small_cases():
    k = 0.3
    # Constants die; single letters obey the textbook derivatives.
    zero = differentiate(SnPoly(Species.from_tag("1"), (1.0,), k))
    assert tuple(to_monomial(zero.coeffs)) == (0.0,)
    d_sn = differentiate(SnPoly(Species.from_tag("s"), (1.0,), k))
    assert d_sn.species == Species.from_tag("cd")
    assert tuple(to_monomial(d_sn.coeffs)) == (1.0,)
    # d/dchi sn^2 = 2 sn cn dn.
    d_u = differentiate(SnPoly(Species.from_tag("1"), from_monomial((0.0, 1.0)), k))
    assert d_u.species == Species.from_tag("scd")
    assert tuple(to_monomial(d_u.coeffs)) == (2.0,)


def test_differentiate_matches_central_difference():
    rng = np.random.default_rng(7)
    chi = rng.uniform(0.05, 1.6, size=100)
    step = 1e-5
    for tag in ALL_TAGS:
        for ksq in (0.3, 0.7):
            p = SnPoly(Species.from_tag(tag), tuple(rng.uniform(-1, 1, size=4)), ksq)
            dp = differentiate(p)
            fd = (p.evaluate(chi + step) - p.evaluate(chi - step)) / (2 * step)
            assert np.max(np.abs(fd - dp.evaluate(chi))) < 1e-7, (tag, ksq)


def test_mul_factor_small_cases():
    k = 0.3
    s_on_one = mul_factor(SnPoly(Species.from_tag("1"), (1.0,), k), "s")
    assert s_on_one.species == Species.from_tag("s")
    assert tuple(to_monomial(s_on_one.coeffs)) == (1.0,)
    d_on_d = mul_factor(SnPoly(Species.from_tag("d"), (1.0,), k), "d")
    assert d_on_d.species == Species.from_tag("1")
    assert tuple(to_monomial(d_on_d.coeffs)) == (1.0, -k)
    c_on_c = mul_factor(SnPoly(Species.from_tag("c"), (1.0,), k), "c")
    assert tuple(to_monomial(c_on_c.coeffs)) == (1.0, -1.0)
    with pytest.raises(ValueError, match="letter must be one of"):
        mul_factor(s_on_one, "x")


def test_mul_factor_is_pointwise_multiplication():
    rng = np.random.default_rng(11)
    chi = rng.uniform(0.05, 1.6, size=20)
    sn, cn, dn = jacobi(chi, 0.45)
    factors = {"s": sn, "c": cn, "d": dn}
    for tag in ALL_TAGS:
        p = SnPoly(Species.from_tag(tag), tuple(rng.uniform(-1, 1, size=3)), 0.45)
        for letter, vals in factors.items():
            q = mul_factor(p, letter)
            assert np.max(np.abs(q.evaluate(chi) - vals * p.evaluate(chi))) < 1e-12


# ---------------------------------------------------------------------------
# Two-coordinate blocks


def test_bisnpoly_product_factorizes_on_grid():
    rng = np.random.default_rng(3)
    pa = SnPoly(Species.from_tag("sc"), tuple(rng.uniform(-1, 1, size=3)), 0.3)
    pb = SnPoly(Species.from_tag("d"), tuple(rng.uniform(-1, 1, size=2)), 0.7)
    block = BiSnPoly.from_product(pa, pb)
    chi1 = np.linspace(0.1, 1.4, 9)
    chi2 = np.linspace(0.2, 1.1, 7)
    grid = block.evaluate_grid(chi1, chi2)
    assert grid.shape == (9, 7)
    outer = np.outer(pa.evaluate(chi1), pb.evaluate(chi2))
    assert np.max(np.abs(grid - outer)) < 1e-12
    # Scalar evaluation agrees with the grid corner.
    assert block.evaluate(float(chi1[0]), float(chi2[0])) == pytest.approx(
        grid[0, 0], abs=1e-14
    )


def test_bisnpoly_plus_trim_scaled():
    rng = np.random.default_rng(4)
    a = random_block(rng)
    b = random_block(rng)
    total = a.plus(b)
    assert np.allclose(total.coeffs, a.coeffs + b.coeffs)
    padded = BiSnPoly(
        a.species_a, a.species_b, np.pad(a.coeffs, ((0, 2), (0, 1))), a.k1sq, a.k2sq
    )
    trimmed = padded.trimmed()
    assert trimmed.coeffs.shape == a.coeffs.shape
    assert trimmed.trimmed().coeffs.shape == trimmed.coeffs.shape
    assert a.scaled(-2.0).max_abs == pytest.approx(2.0 * a.max_abs)
    mismatched = random_block(rng, tag_a="d")
    with pytest.raises(ValueError, match="different species"):
        a.plus(mismatched)


def test_bisn_derivatives_match_central_difference():
    rng = np.random.default_rng(5)
    block = random_block(rng)
    step = 1e-5
    pts = [(0.3, 0.5), (0.9, 0.4), (1.2, 1.0)]
    for c1, c2 in pts:
        fd1 = (block.evaluate(c1 + step, c2) - block.evaluate(c1 - step, c2)) / (2 * step)
        fd2 = (block.evaluate(c1, c2 + step) - block.evaluate(c1, c2 - step)) / (2 * step)
        assert d_chi1(block).evaluate(c1, c2) == pytest.approx(fd1, abs=1e-6)
        assert d_chi2(block).evaluate(c1, c2) == pytest.approx(fd2, abs=1e-6)


def test_mul_factor_bi_both_sides():
    rng = np.random.default_rng(6)
    block = random_block(rng)
    chi1 = np.linspace(0.1, 1.3, 6)
    chi2 = np.linspace(0.2, 1.2, 5)
    base = block.evaluate_grid(chi1, chi2)
    s1 = jacobi(chi1, block.k1sq).sn
    d2 = jacobi(chi2, block.k2sq).dn
    got1 = mul_factor_bi(block, "s", 1).evaluate_grid(chi1, chi2)
    got2 = mul_factor_bi(block, "d", 2).evaluate_grid(chi1, chi2)
    assert np.max(np.abs(got1 - s1[:, None] * base)) < 1e-12
    assert np.max(np.abs(got2 - d2[None, :] * base)) < 1e-12


# ---------------------------------------------------------------------------
# Scale division


def test_divide_by_scale_inverts_multiplication():
    rng = np.random.default_rng(8)
    for tag_a, tag_b in (("1", "1"), ("sc", "d"), ("scd", "scd")):
        block = random_block(rng, tag_a=tag_a, tag_b=tag_b)
        w_block = multiply_by_scale(block)
        back = divide_by_scale(w_block)
        ns, nt = block.coeffs.shape
        assert back.coeffs.shape[0] >= ns and back.coeffs.shape[1] >= nt
        padded = np.zeros_like(back.coeffs)
        padded[:ns, :nt] = block.coeffs
        assert np.max(np.abs(back.coeffs - padded)) < 1e-12


def test_divide_by_scale_on_the_scale_itself():
    k1, k2 = 0.3, 0.7
    w = BiSnPoly(
        Species.from_tag("1"),
        Species.from_tag("1"),
        from_monomial([[1.0, -k2], [-k1, 0.0]]),
        k1,
        k2,
    )
    one = divide_by_scale(w)
    assert one.trimmed().coeffs.shape == (1, 1)
    assert to_monomial(one.coeffs)[0, 0] == pytest.approx(1.0, abs=1e-14)
    # W times (u + 3) divides back to (u + 3).
    shifted = multiply_by_scale(
        BiSnPoly(
            Species.from_tag("1"),
            Species.from_tag("1"),
            from_monomial([[3.0], [1.0]]),
            k1,
            k2,
        )
    )
    q = to_monomial(divide_by_scale(shifted).trimmed().coeffs)
    assert q[0, 0] == pytest.approx(3.0, abs=1e-13)
    assert q[1, 0] == pytest.approx(1.0, abs=1e-13)


def test_divide_by_scale_failures():
    ones = BiSnPoly(
        Species.from_tag("1"), Species.from_tag("1"), np.array([[1.0]]), 0.3, 0.7
    )
    with pytest.raises(NotDivisible, match="remainder"):
        divide_by_scale(ones)
    with pytest.raises(ValueError, match="moduli disagree"):
        divide_by_scale(ones, k1sq=0.4, k2sq=0.6)


# ---------------------------------------------------------------------------
# Basis inversion


def test_invert_basis_degree2_example():
    h_lo = 3.0 - math.sqrt(3.0)
    h_hi = 3.0 + math.sqrt(3.0)
    matrix = np.array([[1.0, -h_lo / 2.0], [1.0, -h_hi / 2.0]])
    inv = invert_basis(matrix)
    assert np.max(np.abs(matrix @ inv - np.eye(2))) < 1e-12


def test_invert_basis_roundtrip_and_failures():
    rng = np.random.default_rng(9)
    m = rng.uniform(-1.0, 1.0, size=(4, 4)) + 4.0 * np.eye(4)
    inv = invert_basis(m)
    assert np.max(np.abs(inv @ m - np.eye(4))) < 1e-12
    with pytest.raises(Singular, match="condition number"):
        invert_basis(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
    with pytest.raises(ValueError, match="must be square"):
        invert_basis(np.zeros((2, 3)))
