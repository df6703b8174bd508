"""Acceptance gate: one test per headline requirement, at the stated tolerance.

Each test prints one pass/fail line under ``pytest -v``. Reference values
come from tests/_forms.py, where every closed form was derived by hand and
cross-checked against the solver and the grid oracle before being
frozen. Known misprints in the reference tabulations are demonstrated
numerically and reported through ``warnings.warn`` so they show up in the
test output without failing the build.
"""

import itertools
import math
import time
import warnings

import numpy as np

from spheroconal import cli
from spheroconal.asymmetry import e1_from_modulus, from_e1
from spheroconal.elliptic import jacobi, quarter_period
from spheroconal.harmonics import build_basis, evaluate_xyz
from spheroconal.ladder import (
    angular_momentum_matrix,
    apply_angular_momentum,
    apply_linear_momentum,
    linear_momentum_bracket,
)
from spheroconal.lame_solver import matrix_size, solve
from spheroconal.oracle import fd_operator, make_grid, state_field
from spheroconal.polyalg import Species

from _forms import (
    SIDE1_TAGS,
    angular_l3_mono_printed,
    angular_l3_row4,
    angular_table_l2,
    cubic_roots,
    energy_table,
    linear_l1_alphas,
    printed_cubic_roots,
    table2_h,
    table2_ratios,
    to_monomial,
)

E1_POINTS = (0.55, 0.75, math.sqrt(3.0) / 2.0, 0.95)
MODULI = (0.3, 0.5, 0.7)
EVEN_TAGS = ("1", "dc", "ds", "cs")
ODD_TAGS = ("d", "c", "s", "dcs")


def modulus_config(k1):
    return from_e1(e1_from_modulus(k1))


def fit_state_signs(names, entries):
    """Best per-state sign assignment for printed = sign(a) sign(b) computed.

    ``entries`` is a list of (state_a, state_b, printed, computed). Returns
    (worst error, normalized signs) minimizing the worst error over all
    assignments, with the first state's sign fixed to +1 (the product form
    leaves one global flip free).
    """
    best, best_sig = math.inf, None
    for values in itertools.product((1, -1), repeat=len(names)):
        sig = dict(zip(names, values))
        worst = max(abs(sig[a] * sig[b] * c - p) for a, b, p, c in entries)
        if worst < best:
            best, best_sig = worst, sig
    anchor = best_sig[names[0]]
    return best, {name: s * anchor for name, s in best_sig.items()}


# ---------------------------------------------------------------------------


def test_criterion_1_eigenvalue_closed_forms():
    """Degrees 0..4: eigenvalues and coefficient ratios match the closed
    forms at k^2 in {0.1, 0.3, 0.5, 0.7, 0.9} within 1e-10, in under 1 s."""
    start = time.perf_counter()
    worst_h = worst_r = 0.0
    for ell, tags in SIDE1_TAGS.items():
        for tag in tags:
            for k in (0.1, 0.3, 0.5, 0.7, 0.9):
                states = solve(ell, Species.from_tag(tag), k, side=1)
                want = table2_h(ell, tag, k)
                assert len(states) == len(want), (ell, tag, k)
                for state, h_ref in zip(states, want):
                    worst_h = max(worst_h, abs(state.h - h_ref))
                    ratios = table2_ratios(ell, tag, k, state.h)
                    assert len(state.poly.coeffs) == len(ratios) + 1
                    powers = to_monomial(state.poly.coeffs)
                    for got, ref in zip(powers[1:] / powers[0], ratios):
                        worst_r = max(worst_r, abs(got - ref))
    elapsed = time.perf_counter() - start
    assert worst_h < 1e-10, f"worst eigenvalue error {worst_h:.3e}"
    assert worst_r < 1e-10, f"worst ratio error {worst_r:.3e}"
    assert elapsed < 1.0, f"closed-form sweep took {elapsed:.2f} s"
    # The widely printed form of the degree-4 trivial-species cubic drops
    # the square on (1 + k) in its middle coefficient; its roots are far
    # from the solver's, while the corrected cubic matches to 1e-10.
    gap = max(
        abs(a - b) for a, b in zip(printed_cubic_roots(0.5), cubic_roots(0.5))
    )
    assert gap > 0.1
    warnings.warn(
        "reference eigenvalue table, degree-4 trivial species: the printed "
        "characteristic cubic omits the square on (1 + k) in its middle "
        f"coefficient (root gap {gap:.2f} at k^2 = 0.5); the corrected cubic "
        "matches the solver to 1e-10"
    )


def test_criterion_2_energy_table():
    """Degrees 0..4: reduced energies match the reference table at the four
    asymmetry points within 1e-9, with exactly the tabulated node keys,
    in under 1 s."""
    start = time.perf_counter()
    worst = 0.0
    for e1 in E1_POINTS:
        cfg = from_e1(e1)
        for ell in range(5):
            want = energy_table(ell, cfg.e, cfg.k1sq, cfg.k2sq)
            got = {(s.label, s.n1, s.n2): s.estar2 for s in build_basis(ell, cfg)}
            assert set(want) == set(got), (e1, ell, set(want) ^ set(got))
            worst = max(abs(want[key] - got[key]) for key in want)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst energy error {worst:.3e}"
    assert elapsed < 1.0, f"energy sweep took {elapsed:.2f} s"


def test_criterion_3_sum_rules_through_degree_50():
    """h1 + h2 = l(l+1) for every state and sum of reduced energies = 0 for
    every degree block, degrees 0..50 at the four asymmetry points, within
    1e-9, in under 30 s."""
    start = time.perf_counter()
    worst_pair = worst_trace = 0.0
    for e1 in E1_POINTS:
        cfg = from_e1(e1)
        for ell in range(51):
            basis = build_basis(ell, cfg)
            assert len(basis) == 2 * ell + 1
            for s in basis:
                worst_pair = max(worst_pair, abs(s.h1 + s.h2 - ell * (ell + 1)))
            worst_trace = max(worst_trace, abs(sum(s.estar2 for s in basis)))
    elapsed = time.perf_counter() - start
    assert worst_pair < 1e-9, f"worst eigenvalue-pair error {worst_pair:.3e}"
    assert worst_trace < 1e-9, f"worst block-trace error {worst_trace:.3e}"
    assert elapsed < 30.0, f"degree sweep took {elapsed:.2f} s"


def test_criterion_4_degree1_angular_actions():
    """The nine degree-1 angular actions are 0 or +-1 exactly (1e-12), and
    each decomposition agrees with the spectral oracle to 1e-6."""
    want = {
        ("x", "x"): {}, ("x", "y"): {"z": 1.0}, ("x", "z"): {"y": -1.0},
        ("y", "x"): {"z": -1.0}, ("y", "y"): {}, ("y", "z"): {"x": 1.0},
        ("z", "x"): {"y": 1.0}, ("z", "y"): {"x": -1.0}, ("z", "z"): {},
    }
    for k1 in MODULI:
        cfg = modulus_config(k1)
        basis = {s.label: s for s in build_basis(1, cfg)}
        for (axis, source), table in want.items():
            dec = apply_angular_momentum(axis, basis[source], cfg)
            got = {t.target.label: t.coefficient for t in dec.terms}
            assert set(got) == set(table), (k1, axis, source)
            for label, value in table.items():
                assert abs(got[label] - value) < 1e-12, (k1, axis, source)
    cfg = modulus_config(0.5)
    grid = make_grid(cfg, 1)
    basis = {s.label: s for s in build_basis(1, cfg)}
    for (axis, source) in want:
        state = basis[source]
        dec = apply_angular_momentum(axis, state, cfg)
        residual = cli._oracle_residual("L" + axis, state, dec, cfg, grid)
        assert residual < 1e-6, (axis, source, residual)


def test_criterion_5_tabulated_ladder_actions():
    """Degree-2 and degree-3 angular tables and the degree-1 linear table
    match the solver up to one orientation per state (1e-9); closed-form
    coefficient formulas and the degree-1 projection weights match to 1e-9
    at k1^2 in {0.3, 0.5, 0.7}; every decomposition involved agrees with
    the spectral oracle to 1e-6."""
    xyz_key = ("xyz", 2, 1)
    for k1 in MODULI:
        cfg = modulus_config(k1)
        basis1 = {s.label: s for s in build_basis(1, cfg)}
        basis2 = {(s.label, s.n1, s.n2): s for s in build_basis(2, cfg)}
        basis3 = {(s.label, s.n1, s.n2): s for s in build_basis(3, cfg)}

        # Degree-2 angular table: one orientation per state.
        keys, printed = angular_table_l2(k1)
        computed = {}
        for row, key in keys.items():
            for axis in "xyz":
                dec = apply_angular_momentum(axis, basis2[key], cfg)
                computed[(row, axis)] = {
                    (t.target.label, t.target.n1, t.target.n2): t.coefficient
                    for t in dec.terms
                }
        names = [keys[r] for r in ("S1", "S2", "S3", "S4", "S5")]
        entries = []
        for (row, axis), table in printed.items():
            assert set(computed[(row, axis)]) == set(table), (k1, row, axis)
            for target, value in table.items():
                entries.append(
                    (keys[row], target, value, computed[(row, axis)][target])
                )
        err, signs = fit_state_signs(names, entries)
        assert err < 1e-9, f"degree-2 orientation fit error {err:.3e} at {k1}"
        assert [signs[n] for n in names] == [1, -1, -1, -1, 1]

        # Degree-3: the (xyz)-row coefficients match the derived closed
        # forms directly, and obey the tabulated pair relations.
        derived = angular_l3_row4(k1)
        row4 = {}
        for axis in "xyz":
            dec = apply_angular_momentum(axis, basis3[xyz_key], cfg)
            for t in dec.terms:
                row4[(axis, (t.target.label, t.target.n1, t.target.n2))] = (
                    t.coefficient
                )
        for key, value in derived.items():
            axis, (lab, n1, n2) = key
            assert abs(row4[(axis, (lab, n1, n2))] - value) < 1e-9, (k1, key)
        c_x1 = row4[("x", ("x", 0, 3))]
        c_x2 = row4[("x", ("x", 2, 1))]
        c_y1 = row4[("y", ("y", 1, 2))]
        c_y2 = row4[("y", ("y", 3, 0))]
        c_z1 = row4[("z", ("z", 1, 2))]
        c_z2 = row4[("z", ("z", 3, 0))]
        assert abs(c_x1 + c_x2 + 1.0) < 1e-12
        assert abs(c_y1 + c_y2) < 1e-12
        assert abs(c_z1 + c_z2 - 1.0) < 1e-12

        # Degree-3 single-term column: fit one orientation per state,
        # jointly with the printed (xyz)-row values, which carry the
        # opposite orientation of the derived forms throughout.
        mono_printed = angular_l3_mono_printed(k1)
        mono_computed = {}
        for (src, axis) in mono_printed:
            dec = apply_angular_momentum(axis, basis3[src], cfg)
            assert len(dec.terms) == 1 and dec.terms[0].target.label == "xyz"
            mono_computed[(src, axis)] = dec.terms[0].coefficient
        names3 = [
            ("x", 0, 3), ("y", 1, 2), ("z", 1, 2),
            xyz_key, ("x", 2, 1), ("y", 3, 0), ("z", 3, 0),
        ]

        def joint_entries(emend_last: bool):
            entries3 = []
            for (src, axis), value in mono_printed.items():
                if emend_last and src == ("z", 3, 0):
                    value = -value
                entries3.append((src, xyz_key, value, mono_computed[(src, axis)]))
            for (axis, target), value in derived.items():
                entries3.append((xyz_key, target, -value, row4[(axis, target)]))
            return entries3

        err_printed, _ = fit_state_signs(names3, joint_entries(False))
        err_emended, signs3 = fit_state_signs(names3, joint_entries(True))
        assert err_printed > 1e-3, "as-printed fit unexpectedly consistent"
        assert err_emended < 1e-9, (
            f"degree-3 orientation fit error {err_emended:.3e} at {k1}"
        )
        assert signs3[xyz_key] == -1
        assert all(signs3[n] == 1 for n in names3 if n != xyz_key)
        if k1 == MODULI[0]:
            warnings.warn(
                "reference degree-3 angular table: the z-column entry for "
                "the (3, 0) state disagrees in sign with every per-state "
                "orientation assignment once the (xyz)-row entries are "
                "included; flipping that single sign makes the whole table "
                "consistent (misprint)"
            )
            warnings.warn(
                "reference degree-3 coefficient formulas: the printed pair "
                "for the first axis mixes eigenvalue families in its "
                "subscripts and does not evaluate to the tabulated action; "
                "the companion pair, read with second-coordinate node "
                "labels, does"
            )

        # The second-axis printed coefficient formula, read with
        # second-coordinate node labels, evaluates to the solver value and
        # its numerator collapses to exactly -5 by the eigenvalue sum rule.
        k2 = 1.0 - k1
        hc1 = table2_h(3, "c", k1)
        hc2 = table2_h(3, "c", k2)
        ac = lambda h: (1.0 - h) / 2.0
        numerator = ac(hc2[1]) + ac(hc1[0])
        denominator = ac(hc1[1]) * ac(hc2[1]) - ac(hc1[0]) * ac(hc2[0])
        assert abs(numerator + 5.0) < 1e-12
        assert abs(numerator / denominator - c_y1) < 1e-9

        # Degree-1 linear table: diagonal brackets equal the closed-form
        # direction fields; off-diagonal brackets equal minus the degree-2
        # target, matching the degree-2 orientation fit above (the three
        # single-product states carry sign -1), so no sign is free here.
        K1, K2 = quarter_period(k1), quarter_period(k2)
        chi1 = np.linspace(-0.8 * K1, 0.8 * K1, 9)
        chi2 = np.linspace(-0.8 * K2, 0.8 * K2, 9)
        sn1, cn1, dn1 = jacobi(chi1, k1)
        sn2, cn2, dn2 = jacobi(chi2, k2)
        diag_fields = {
            "x": 1.0 - np.outer(dn1 * dn1, sn2 * sn2),
            "y": 1.0 - np.outer(cn1 * cn1, cn2 * cn2),
            "z": 1.0 - np.outer(sn1 * sn1, dn2 * dn2),
        }
        for label in "xyz":
            bracket = linear_momentum_bracket(label, basis1[label])
            got = bracket.evaluate_grid(chi1, chi2)
            assert np.abs(got - diag_fields[label]).max() < 1e-12, (k1, label)
        for axis, label, target in (
            ("y", "x", ("xy", 1, 1)), ("z", "x", ("xz", 1, 1)),
            ("x", "y", ("xy", 1, 1)), ("z", "y", ("yz", 2, 0)),
            ("x", "z", ("xz", 1, 1)), ("y", "z", ("yz", 2, 0)),
        ):
            got = linear_momentum_bracket(axis, basis1[label]).evaluate_grid(
                chi1, chi2
            )
            ref = basis2[target].wavefunction.evaluate_grid(chi1, chi2)
            assert np.abs(got + ref).max() < 1e-12, (k1, axis, label)
            assert signs[target] == -1

        # Degree-1 projection weights: the printed alpha/gamma closed forms
        # equal the axis-direction values of the two trivial degree-2
        # states, and determine the raising coefficients of the linear
        # ladder on the diagonal.
        alpha02, gamma02, alpha20, gamma20 = linear_l1_alphas(k1)
        for (n1, n2), alpha, gamma in (
            ((0, 2), alpha02, gamma02),
            ((2, 0), alpha20, gamma20),
        ):
            state = basis2[("1", n1, n2)]
            assert abs(evaluate_xyz(state, (1.0, 0.0, 0.0)) - alpha) < 1e-9
            assert abs(evaluate_xyz(state, (0.0, 1.0, 0.0)) - 1.0) < 1e-9
            assert abs(evaluate_xyz(state, (0.0, 0.0, 1.0)) - gamma) < 1e-9
        projection = np.array([[alpha02, alpha20], [1.0, 1.0], [gamma02, gamma20]])
        rhs = {
            "x": np.array([2.0, -1.0, -1.0]) / 3.0,
            "y": np.array([-1.0, 2.0, -1.0]) / 3.0,
            "z": np.array([-1.0, -1.0, 2.0]) / 3.0,
        }
        for label in "xyz":
            coeffs, *_ = np.linalg.lstsq(projection, rhs[label], rcond=None)
            assert np.abs(projection @ coeffs - rhs[label]).max() < 1e-9
            dec = apply_linear_momentum(label, basis1[label], cfg)
            got = {
                (t.target.ell, t.target.n1): t.coefficient for t in dec.terms
            }
            assert abs(got[(0, 0)] - 1.0) < 1e-12
            assert abs(got[(2, 0)] - coeffs[0]) < 1e-9
            assert abs(got[(2, 2)] - coeffs[1]) < 1e-9

        # Every decomposition the tables cover agrees with the oracle.
        for ell, op_kind in ((2, "L"), (3, "L"), (1, "P")):
            grid = make_grid(cfg, ell)
            for state in build_basis(ell, cfg):
                for axis in "xyz":
                    if op_kind == "L":
                        dec = apply_angular_momentum(axis, state, cfg)
                    else:
                        dec = apply_linear_momentum(axis, state, cfg)
                    residual = cli._oracle_residual(
                        op_kind + axis, state, dec, cfg, grid
                    )
                    assert residual < 1e-6, (k1, ell, axis, state.label, residual)


def test_criterion_6_spectral_eigenvalues_through_degree_50():
    """Regression estimates of the squared-momentum and reduced-energy
    spectral eigenvalues match l(l+1) and E*2/2 for every state of
    degrees 0..12, 16, 24, 32 and 50, at all four asymmetry points,
    within a relative 1e-9, in under 60 s."""
    start = time.perf_counter()
    worst = 0.0
    for e1 in E1_POINTS:
        cfg = from_e1(e1)
        for ell in (*range(13), 16, 24, 32, 50):
            grid = make_grid(cfg, ell)
            for state in build_basis(ell, cfg):
                field = state_field(state, *grid)
                norm = float(np.sum(field.values**2))
                lam = float(
                    np.sum(field.values * fd_operator("L2", field, cfg).values) / norm
                )
                scale = max(1.0, ell * (ell + 1))
                worst = max(worst, abs(lam - ell * (ell + 1)) / scale)
                mu = float(
                    np.sum(field.values * fd_operator("Hstar", field, cfg).values) / norm
                )
                scale = max(1.0, abs(state.estar2) / 2.0)
                worst = max(worst, abs(mu - state.estar2 / 2.0) / scale)
    elapsed = time.perf_counter() - start
    assert worst < 1e-9, f"worst spectral eigenvalue error {worst:.3e}"
    assert elapsed < 60.0, f"spectral sweep took {elapsed:.1f} s"


def test_criterion_7_matrix_algebra_and_divisibility():
    """Angular-momentum matrices satisfy the cyclic commutators and the
    squared-momentum closure through degree 4 within 1e-8, and the
    angular action divides by the metric factor for every state through
    degree 6."""
    for cfg in (from_e1(math.sqrt(3.0) / 2.0), modulus_config(0.3)):
        for ell in range(5):
            mats = {ax: angular_momentum_matrix(ax, ell, cfg) for ax in "xyz"}
            for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
                comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                assert np.abs(comm - 1j * mats[c]).max() < 1e-8, (ell, a, b)
            casimir = sum(mats[ax] @ mats[ax] for ax in "xyz")
            eye = ell * (ell + 1) * np.eye(2 * ell + 1)
            assert np.abs(casimir - eye).max() < 1e-8, ell
    cfg = from_e1(math.sqrt(3.0) / 2.0)
    for ell in range(7):
        for state in build_basis(ell, cfg):
            for axis in "xyz":
                dec = apply_angular_momentum(axis, state, cfg)
                assert all(t.target.ell == ell for t in dec.terms)


def test_criterion_8_multiplet_sizes_and_parities():
    """The four species blocks of each degree partition the multiplet,
    degrees 0..50, and every constructed state through degree 20 has
    coordinate parity product (-1)^l."""
    for ell in range(51):
        tags = EVEN_TAGS if ell % 2 == 0 else ODD_TAGS
        sizes = [matrix_size(ell, Species.from_tag(t)) for t in tags]
        assert sum(sizes) == 2 * ell + 1, (ell, sizes)
    cfg = from_e1(math.sqrt(3.0) / 2.0)
    for ell in range(21):
        for state in build_basis(ell, cfg):
            product = state.parities[0] * state.parities[1] * state.parities[2]
            assert product == (-1) ** ell, (ell, state.label)
