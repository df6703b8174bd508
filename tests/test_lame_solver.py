"""One-coordinate eigenproblem: matrices, eigenvalues, node bookkeeping."""

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from spheroconal.asymmetry import from_e1
from spheroconal.errors import WrongKind
from spheroconal.lame_solver import apply_operator, build_matrix, matrix_size, solve
from spheroconal.polyalg import Species

from _forms import SIDE1_TAGS, table2_h
from conftest import E1_VALUES

EVEN_TAGS = ("1", "dc", "ds", "cs")
ODD_TAGS = ("d", "c", "s", "dcs")


def sp(tag):
    return Species.from_tag(tag)


def allowed_tags(ell):
    return EVEN_TAGS if ell % 2 == 0 else ODD_TAGS


# ---------------------------------------------------------------------------
# Sizes and matrices


def test_matrix_size_examples():
    assert matrix_size(0, sp("1")) == 1
    assert matrix_size(4, sp("1")) == 3
    assert matrix_size(4, sp("dc")) == 2
    assert matrix_size(3, sp("scd")) == 1
    assert matrix_size(3, sp("d")) == 2
    assert matrix_size(1, sp("c")) == 1


def test_matrix_sizes_partition_multiplet():
    for ell in range(13):
        total = sum(matrix_size(ell, sp(tag)) for tag in allowed_tags(ell))
        assert total == 2 * ell + 1, ell


def test_matrix_size_parity_gate():
    with pytest.raises(WrongKind, match="wrong parity"):
        matrix_size(3, sp("1"))
    with pytest.raises(WrongKind, match="wrong parity"):
        matrix_size(2, sp("d"))
    with pytest.raises(ValueError, match="nonnegative"):
        matrix_size(-1, sp("1"))


def test_build_matrix_smallest_cases():
    assert build_matrix(0, sp("1"), 0.4).tolist() == [[0.0]]
    for k in (0.3, 0.7):
        assert build_matrix(1, sp("d"), k).tolist() == [[k]]
        assert build_matrix(1, sp("c"), k).tolist() == [[1.0]]
        assert build_matrix(1, sp("s"), k).tolist() == [[1.0 + k]]


def test_build_matrix_degree2_trivial_eigenvalues():
    eigs = sorted(np.linalg.eigvals(build_matrix(2, sp("1"), 0.5)).real)
    assert eigs[0] == pytest.approx(3.0 - math.sqrt(3.0), abs=1e-12)
    assert eigs[1] == pytest.approx(3.0 + math.sqrt(3.0), abs=1e-12)


# ---------------------------------------------------------------------------
# solve(): eigenvalues, nodes, coefficients


def test_solve_degree3_d_species():
    states = solve(3, sp("d"), 0.3)
    root = 2.0 * math.sqrt(1.06)
    assert [s.n for s in states] == [0, 2]
    assert states[0].h == pytest.approx(3.5 - root, abs=1e-12)
    assert states[1].h == pytest.approx(3.5 + root, abs=1e-12)
    for s in states:
        assert abs(s.poly.poly_value(0.0) - 1.0) <= 2 * math.ulp(1.0)


def test_solve_degree1_cosine_species():
    for k in (0.2, 0.5, 0.8):
        (state,) = solve(1, sp("c"), k)
        assert state.h == pytest.approx(1.0, abs=1e-14)
        assert state.n == 1
        assert state.poly.coeffs == (1.0,)


def test_solve_returns_correctly_rounded_eigenvalues():
    # Degree 1 has h = k (d) and h = 1 + k (s); the last k makes 1 + k a
    # tie between two floats, which rounds to the even one.
    tie = 0.9342970264944647
    assert Fraction(1.0 + tie) != 1 + Fraction(tie)
    for k in (0.2, 0.37, tie):
        assert solve(1, sp("d"), k)[0].h == k
        assert solve(1, sp("s"), k)[0].h == 1.0 + k
    # Degree 2, trivial species, k^2 = 1/2: h = 3 -+ sqrt(3), rounded once.
    with localcontext() as ctx:
        ctx.prec = 50
        root = Decimal(3).sqrt()
    hs = [s.h for s in solve(2, sp("1"), 0.5)]
    assert hs == [float(3 - root), float(3 + root)]


def test_solve_side2_node_assignment():
    states = solve(3, sp("s"), 0.3, side=2)
    assert [s.n for s in states] == [1, 3]
    # Polynomial content is side independent.
    side1 = solve(3, sp("s"), 0.3, side=1)
    assert [s.h for s in states] == [s.h for s in side1]
    assert [s.n for s in side1] == [1, 3]


def test_solve_ordering_normalization_count():
    k = 0.37
    for ell in range(11):
        for tag in allowed_tags(ell):
            states = solve(ell, sp(tag), k)
            assert len(states) == matrix_size(ell, sp(tag))
            hs = [s.h for s in states]
            assert hs == sorted(hs)
            for rank, s in enumerate(states):
                assert abs(s.poly.poly_value(0.0) - 1.0) <= 2 * math.ulp(1.0)
                assert s.n == sp(tag).node_base(1) + 2 * rank


def test_closed_forms_low_degrees():
    for ell, tags in SIDE1_TAGS.items():
        for tag in tags:
            for k in (0.25, 0.6):
                states = solve(ell, sp(tag), k)
                for s, want in zip(states, table2_h(ell, tag, k)):
                    assert s.h == pytest.approx(want, abs=1e-10), (ell, tag, k)


def test_operator_residual_algebraic():
    # apply_operator is exact polynomial algebra, so the coefficient-space
    # residual measures eigenpair accuracy alone.
    k = 0.41
    for ell in range(21):
        for tag in allowed_tags(ell):
            for s in solve(ell, sp(tag), k):
                image = apply_operator(s.poly, ell)
                n = max(len(image.coeffs), len(s.poly.coeffs))
                ca = np.zeros(n)
                ca[: len(image.coeffs)] = image.coeffs
                cb = np.zeros(n)
                cb[: len(s.poly.coeffs)] = s.poly.coeffs
                scale = max(np.abs(cb).max() * max(1.0, abs(s.h)), 1.0)
                assert np.abs(ca - s.h * cb).max() < 1e-9 * scale, (ell, tag)


def test_ode_residual_through_degree_50():
    """The coefficient-space residual of every eigenpolynomial, scaled as in
    verify's ode-residual, is at most 1e-10 for degrees 0..50 at the four
    asymmetries, on both moduli, in under 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for e1 in E1_VALUES:
        cfg = from_e1(e1)
        for ksq in (cfg.k1sq, cfg.k2sq):
            for ell in range(51):
                for tag in allowed_tags(ell):
                    for s in solve(ell, sp(tag), ksq):
                        image = np.asarray(apply_operator(s.poly, ell).coeffs)
                        poly = np.zeros_like(image)
                        poly[: len(s.poly.coeffs)] = s.poly.coeffs
                        scale = max(np.abs(poly).max(), 1.0) * max(1.0, abs(s.h))
                        worst = max(worst, np.abs(image - s.h * poly).max() / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst ode residual {worst:.3e}"
    assert elapsed < 30.0, f"degree sweep took {elapsed:.2f} s"


def test_operator_residual_finite_difference():
    # Independent of the exact-derivative algebra: stencil second derivative
    # of the assembled eigenfunction against h times itself.
    k = 0.37
    step = 1e-4
    from spheroconal.elliptic import jacobi, quarter_period

    chi = np.linspace(0.15, quarter_period(k) - 0.15, 25)
    sn = jacobi(chi, k).sn
    for ell in range(9):
        for tag in allowed_tags(ell):
            for s in solve(ell, sp(tag), k):
                f = s.poly.evaluate(chi)
                fpp = (
                    s.poly.evaluate(chi + step)
                    - 2.0 * f
                    + s.poly.evaluate(chi - step)
                ) / step**2
                resid = -fpp + ell * (ell + 1) * k * sn * sn * f - s.h * f
                scale = max(1.0, abs(s.h) * float(np.abs(f).max()))
                assert np.abs(resid).max() < 1e-5 * scale, (ell, tag, s.n)


def test_complementary_side_eigenvalues_sum():
    for ell in (2, 3, 4, 7, 10):
        for tag in allowed_tags(ell):
            a = solve(ell, sp(tag), 0.3, side=1)
            b = solve(ell, sp(tag).partner(), 0.7, side=2)
            total = ell * (ell + 1)
            for i, s in enumerate(a):
                assert s.h + b[len(b) - 1 - i].h == pytest.approx(total, abs=1e-10)


def test_polynomial_root_counts():
    # Rank r eigenpolynomial has exactly r simple roots in u = sn^2 in (0, 1).
    u = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    for ell in range(9):
        for tag in allowed_tags(ell):
            for rank, s in enumerate(solve(ell, sp(tag), 0.37)):
                vals = s.poly.poly_value(u)
                crossings = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
                assert crossings == rank, (ell, tag, rank)
