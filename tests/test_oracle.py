"""Spectral oracle: full-period grids, spectral operators and the |l,m> rotor
spectra; also the least-squares basis fit the ladder tests score it with."""

import numpy as np
import pytest

from spheroconal import harmonics, lame_solver, polyalg
from spheroconal.asymmetry import e1_from_modulus, from_e1
from spheroconal.elliptic import jacobi, quarter_period
from spheroconal.harmonics import build_basis, evaluate
from spheroconal.oracle import (
    GridField,
    fd_operator,
    make_grid,
    rotor_energies,
    state_field,
)

from _forms import fit_in_basis


def test_make_grid_shape_and_bounds(mid_config):
    for cfg in (mid_config, from_e1(0.55), from_e1(0.95)):
        for ell in (0, 3, 16):
            chi1, chi2 = make_grid(cfg, ell)
            for chi, ksq in ((chi1, cfg.k1sq), (chi2, cfg.k2sq)):
                n = chi.size
                assert n >= 32 and n & (n - 1) == 0, n
                period = 4.0 * quarter_period(ksq)
                step = period / n
                assert np.abs(np.diff(chi) - step).max() < 1e-12
                # one full period [-2K, 2K), offset by half a step
                assert chi[0] == pytest.approx(-period / 2 + step / 2, abs=1e-12)
                assert chi[-1] == pytest.approx(period / 2 - step / 2, abs=1e-12)
                assert np.abs(jacobi(chi, ksq).sn).max() < 1.0
            u = jacobi(chi1, cfg.k1sq).sn[:, None] ** 2
            v = jacobi(chi2, cfg.k2sq).sn[None, :] ** 2
            assert (1.0 - cfg.k1sq * u - cfg.k2sq * v).min() > 0.0
    sizes = [make_grid(mid_config, ell)[0].size for ell in (0, 6, 16, 32, 50)]
    assert sizes == sorted(sizes) and sizes[-1] > sizes[0], sizes
    # The axis with the larger K/K' (the slower Fourier decay) gets more points.
    for e1, longer in ((0.55, 0), (0.95, 1)):
        grids = make_grid(from_e1(e1), 6)
        assert grids[longer].size > grids[1 - longer].size, e1
    with pytest.raises(ValueError, match="nonnegative"):
        make_grid(mid_config, -1)


def test_grid_field_validation():
    good = np.linspace(0.0, 1.0, 12)
    with pytest.raises(ValueError, match="at least 9 points"):
        GridField(good[:5], good, np.zeros((5, 12)))
    crooked = good.copy()
    crooked[3] += 1e-3
    with pytest.raises(ValueError, match="uniform and increasing"):
        GridField(crooked, good, np.zeros((12, 12)))
    with pytest.raises(ValueError, match="does not match grids"):
        GridField(good, good, np.zeros((12, 5)))


def test_state_field_samples_the_wavefunction(mid_config):
    chi1, chi2 = make_grid(mid_config, 2)
    state = build_basis(2, mid_config)[0]
    field = state_field(state, chi1, chi2)
    assert field.values.shape == (chi1.size, chi2.size)
    assert np.array_equal(field.values, evaluate(state, chi1, chi2))


def rayleigh(kind, state, config):
    """Regression estimate of the eigenvalue of one spectral operator."""
    field = state_field(state, *make_grid(config, state.ell))
    out = fd_operator(kind, field, config)
    return float(np.sum(field.values * out.values) / np.sum(field.values**2))


def test_stencil_eigenvalues_degree2_and_3(mid_config):
    for ell in (2, 3):
        for state in build_basis(ell, mid_config):
            lam = rayleigh("L2", state, mid_config)
            assert abs(lam / (ell * (ell + 1)) - 1.0) < 1e-12, (ell, state.label)
            mu = rayleigh("Hstar", state, mid_config)
            scale = max(1.0, abs(state.estar2) / 2.0)
            assert abs(mu - state.estar2 / 2.0) < 1e-12 * scale, (ell, state.label)


def test_stencil_angular_momentum_kills_the_constant(mid_config):
    chi1, chi2 = make_grid(mid_config, 0)
    (ground,) = build_basis(0, mid_config)
    field = state_field(ground, chi1, chi2)
    for kind in ("Lx", "Ly", "Lz"):
        out = fd_operator(kind, field, mid_config)
        assert np.abs(out.values).max() < 1e-10, kind


def test_operator_rejects_fields_off_one_period(mid_config):
    state = build_basis(3, mid_config)[0]
    k1 = quarter_period(mid_config.k1sq)
    chi1, chi2 = make_grid(mid_config, 3)
    box = np.linspace(-0.88 * k1, 0.88 * k1, 64)
    half = chi1[: chi1.size // 2]
    other = make_grid(from_e1(0.55), 3)
    for grids in ((box, chi2), (chi1, half), other):
        field = state_field(state, *grids)
        with pytest.raises(ValueError, match="not one period"):
            fd_operator("L2", field, mid_config)


def test_unknown_operator_kind(mid_config):
    chi1, chi2 = make_grid(mid_config, 0)
    (ground,) = build_basis(0, mid_config)
    with pytest.raises(ValueError, match="unknown operator kind"):
        fd_operator("Qx", state_field(ground, chi1, chi2), mid_config)


def test_fit_recovers_scaled_member(mid_config):
    chi1, chi2 = make_grid(mid_config, 2)
    basis = build_basis(2, mid_config)
    target = state_field(basis[1], chi1, chi2)
    scaled = GridField(chi1, chi2, 2.5 * target.values)
    coeffs, residual = fit_in_basis(scaled, basis)
    assert residual < 1e-10
    assert coeffs[1] == pytest.approx(2.5, abs=1e-10)
    others = np.delete(coeffs, 1)
    assert np.abs(others).max() < 1e-10


def test_fit_rejects_out_of_band_content(mid_config):
    chi1, chi2 = make_grid(mid_config, 4)
    intruder = build_basis(4, mid_config)[2]
    _, residual = fit_in_basis(state_field(intruder, chi1, chi2), build_basis(2, mid_config))
    assert residual > 0.1


def test_fit_degenerate_basis_and_empty_basis(mid_config):
    chi1, chi2 = make_grid(mid_config, 1)
    state = build_basis(1, mid_config)[0]
    field = state_field(state, chi1, chi2)
    with pytest.raises(ValueError, match="condition number"):
        fit_in_basis(field, [state, state])
    with pytest.raises(ValueError, match="at least one state"):
        fit_in_basis(field, [])


_LOW_AND_TWO_HIGH = (*range(21), 32, 50)


# k1sq = 0.5 is the most asymmetric point, e1 = sqrt(3)/2.
@pytest.mark.parametrize(
    "e1, degrees",
    [
        pytest.param(0.5001, range(51), id="e1=0.5001"),
        pytest.param(0.9999, range(51), id="e1=0.9999"),
        *(pytest.param(e1, _LOW_AND_TWO_HIGH, id=f"e1={e1}") for e1 in (0.55, 0.75, 0.95)),
        *(
            pytest.param(e1_from_modulus(k), _LOW_AND_TWO_HIGH, id=f"k1sq={k}")
            for k in (0.3, 0.5, 0.7)
        ),
    ],
)
def test_rotor_energies_agree_with_elliptic(e1, degrees):
    config = from_e1(e1)
    for ell in degrees:
        want = np.sort([s.estar2 for s in build_basis(ell, config)])
        got = rotor_energies(ell, config)
        assert got.shape == (2 * ell + 1,), ell
        gap = np.max(np.abs(want - got))
        assert gap <= 1e-13 * max(1, ell * (ell + 1)), (ell, gap)


def test_rotor_energies_use_no_elliptic_code(mid_config, monkeypatch):
    want = [rotor_energies(ell, mid_config) for ell in (0, 1, 7)]

    def refuse(*args, **kwargs):
        raise AssertionError("the |l,m> route called the elliptic code")

    monkeypatch.setattr(lame_solver, "_eigenvalues", refuse)
    monkeypatch.setattr(harmonics, "build_basis", refuse)
    monkeypatch.setattr(polyalg, "chain_rule", refuse)
    for ell, values in zip((0, 1, 7), want):
        assert np.array_equal(rotor_energies(ell, mid_config), values)
    assert rotor_energies(0, mid_config).tolist() == [0.0]
    with pytest.raises(ValueError, match="nonnegative"):
        rotor_energies(-1, mid_config)