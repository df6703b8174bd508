"""Assembled harmonics: multiplets, energies, point evaluation."""

import math

import numpy as np
import pytest

from spheroconal import lame_solver
from spheroconal.asymmetry import from_e1, from_moments
from spheroconal.elliptic import jacobi
from spheroconal.errors import MissingScale, OutOfRange
from spheroconal.harmonics import (
    LABEL_ORDER,
    build_basis,
    evaluate,
    evaluate_xyz,
    label_for_species,
    species_for_label,
    total_energy,
)
from spheroconal.polyalg import Species

from _forms import energy_table


def unit(vec):
    arr = np.asarray(vec, dtype=float)
    return tuple(arr / np.linalg.norm(arr))


def test_label_species_roundtrip():
    assert LABEL_ORDER == ("1", "x", "y", "z", "xy", "xz", "yz", "xyz")
    for label in LABEL_ORDER:
        pair = species_for_label(label)
        assert label_for_species(pair[0]) == label
        # The two sides carry partnered species.
        assert pair[1] == pair[0].partner()


def test_basis_structure(mid_config):
    for ell in range(13):
        basis = build_basis(ell, mid_config)
        assert len(basis) == 2 * ell + 1
        energies = [s.estar2 for s in basis]
        assert energies == sorted(energies)
        e1, _, e3 = mid_config.e
        for s in basis:
            assert s.n1 + s.n2 == ell
            assert s.n1 == s.lame1.n and s.n2 == s.lame2.n
            assert s.h1 == s.lame1.h and s.h2 == s.lame2.h
            assert abs(s.h1 + s.h2 - ell * (ell + 1)) < 1e-9
            assert s.estar2 == pytest.approx(e1 * s.h1 + e3 * s.h2, abs=1e-12)
            assert s.label == label_for_species(s.species_a)
            assert s.species_b == s.species_a.partner()


def test_basis_is_deterministic(mid_config):
    a = build_basis(7, mid_config)
    b = build_basis(7, mid_config)
    assert [(s.label, s.n1, s.estar2) for s in a] == [
        (s.label, s.n1, s.estar2) for s in b
    ]


def test_multiplet_trace_vanishes(mid_config):
    for ell in (5, 11, 20):
        total = sum(s.estar2 for s in build_basis(ell, mid_config))
        assert abs(total) < 1e-9, ell


def test_parity_product(mid_config):
    for ell in range(13):
        for s in build_basis(ell, mid_config):
            assert s.parities == tuple(
                -1 if axis in s.label else 1 for axis in "xyz"
            )
            assert math.prod(s.parities) == (-1) ** ell


def test_low_degree_energies_closed_form(mid_config, modulus_config):
    _, cfg = modulus_config
    for config in (mid_config, cfg):
        for ell in range(5):
            want = energy_table(ell, config.e, config.k1sq, config.k2sq)
            got = {(s.label, s.n1, s.n2): s.estar2 for s in build_basis(ell, config)}
            assert set(got) == set(want), ell
            for key, value in want.items():
                assert got[key] == pytest.approx(value, abs=1e-9), (ell, key)


def test_degree3_product_state_sits_at_zero():
    cfg = from_e1(0.81)
    (state,) = [s for s in build_basis(3, cfg) if s.label == "xyz"]
    assert abs(state.estar2) < 1e-12
    assert (state.n1, state.n2) == (2, 1)


def test_total_energy_requires_scale_and_matches_hand_values():
    cfg = from_moments(1.0, 2.0, 3.0)
    energies = sorted(total_energy(s, cfg) for s in build_basis(1, cfg))
    assert energies[0] == pytest.approx(5.0 / 12.0, abs=1e-13)
    assert energies[1] == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert energies[2] == pytest.approx(3.0 / 4.0, abs=1e-13)
    (ground,) = build_basis(0, cfg)
    assert total_energy(ground, cfg) == 0.0
    # And the composition rule E = (q l(l+1) + p (2E*)) / 2 behind them.
    for s in build_basis(2, cfg):
        want = 0.5 * (cfg.q * 6.0 + cfg.p * s.estar2)
        assert total_energy(s, cfg) == pytest.approx(want, abs=1e-15)
    scaleless = from_e1(0.75)
    with pytest.raises(MissingScale, match="no absolute inertia scale"):
        total_energy(build_basis(1, scaleless)[0], scaleless)


def test_point_values_low_states(mid_config):
    basis1 = {s.label: s for s in build_basis(1, mid_config)}
    # Degree-1 wavefunctions are the cartesian coordinates themselves.
    assert evaluate_xyz(basis1["x"], (1.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert evaluate_xyz(basis1["x"], (0.6, 0.8, 0.0)) == pytest.approx(0.6, abs=1e-12)
    assert evaluate_xyz(basis1["y"], (0.6, 0.8, 0.0)) == pytest.approx(0.8, abs=1e-12)
    assert evaluate_xyz(basis1["z"], (0.6, 0.8, 0.0)) == pytest.approx(0.0, abs=1e-12)
    (ground,) = build_basis(0, mid_config)
    assert evaluate_xyz(ground, unit((0.3, -0.5, 0.9))) == pytest.approx(1.0, abs=1e-12)


def test_product_state_is_proportional_to_xy(mid_config):
    rng = np.random.default_rng(12)
    (state,) = [s for s in build_basis(2, mid_config) if s.label == "xy"]
    ratios = []
    for _ in range(20):
        x, y, z = unit(rng.normal(size=3))
        value = evaluate_xyz(state, (x, y, z))
        ratios.append(value / (x * y))
    assert np.max(np.abs(np.asarray(ratios) - ratios[0])) < 1e-9


def test_point_parity_flips(mid_config):
    rng = np.random.default_rng(13)
    for ell in range(4):
        for state in build_basis(ell, mid_config):
            x, y, z = unit(rng.normal(size=3))
            base = evaluate_xyz(state, (x, y, z))
            px, py, pz = state.parities
            assert evaluate_xyz(state, (-x, y, z)) == pytest.approx(px * base, abs=1e-10)
            assert evaluate_xyz(state, (x, -y, z)) == pytest.approx(py * base, abs=1e-10)
            assert evaluate_xyz(state, (x, y, -z)) == pytest.approx(pz * base, abs=1e-10)


def test_grid_and_point_evaluation_agree(mid_config):
    chi1 = np.array([0.35, 0.8])
    chi2 = np.array([0.25, 0.95])
    s1, c1, d1 = jacobi(chi1, mid_config.k1sq)
    s2, c2, d2 = jacobi(chi2, mid_config.k2sq)
    for ell in range(4):
        for state in build_basis(ell, mid_config):
            grid = evaluate(state, chi1, chi2)
            assert grid.shape == (2, 2)
            for i in range(2):
                for j in range(2):
                    direction = (d1[i] * s2[j], c1[i] * c2[j], s1[i] * d2[j])
                    point = evaluate_xyz(state, direction)
                    assert point == pytest.approx(grid[i, j], abs=1e-10)


def test_evaluate_xyz_rejects_non_unit_directions(mid_config):
    (ground,) = build_basis(0, mid_config)
    with pytest.raises(OutOfRange, match="unit vector"):
        evaluate_xyz(ground, (0.5, 0.0, 0.0))


def test_species_for_label_rejects_garbage():
    with pytest.raises(ValueError, match="unknown label"):
        species_for_label("w")


def test_polynomials_are_built_once_on_first_read(mid_config):
    for s in build_basis(4, mid_config):
        assert s.wavefunction is s.wavefunction
        assert s.lame1.poly is s.lame1.poly
        assert s.lame2.poly is s.lame2.poly


def test_basis_builds_no_eigenpolynomial_until_read(monkeypatch):
    """A degree-50 basis needs only eigenvalues; its polynomials, read
    afterwards, still satisfy the ODE to 1e-10."""

    def refuse(*args):
        raise AssertionError("basis built an eigenpolynomial matrix")

    lame_solver._eigenpolynomials.cache_clear()
    monkeypatch.setattr(lame_solver, "build_matrix", refuse)
    ell = 50
    basis = build_basis(ell, from_e1(0.55))
    assert len(basis) == 2 * ell + 1
    monkeypatch.undo()
    worst = 0.0
    for s in basis:
        for lame in (s.lame1, s.lame2):
            image = np.asarray(lame_solver.apply_operator(lame.poly, ell).coeffs)
            poly = np.zeros_like(image)
            poly[: len(lame.poly.coeffs)] = lame.poly.coeffs
            scale = max(np.abs(poly).max(), 1.0) * max(1.0, abs(lame.h))
            worst = max(worst, np.abs(image - lame.h * poly).max() / scale)
    assert worst <= 1e-10, f"worst ode residual {worst:.3e}"
