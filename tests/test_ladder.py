"""Ladder decompositions: angular and linear momentum actions, node shifts."""

import time

import numpy as np
import pytest

from spheroconal import harmonics, lame_solver, ladder
from spheroconal.asymmetry import e1_from_modulus, from_e1, from_moments
from spheroconal.errors import LadderEnd, ProjectionResidual, Singular
from spheroconal.harmonics import LABEL_ORDER, build_basis, label_for_species
from spheroconal.ladder import (
    L_CONVENTION,
    P_CONVENTION,
    LadderDecomposition,
    angular_momentum_matrix,
    apply_angular_momentum,
    apply_linear_momentum,
    linear_momentum_bracket,
    shift_nodes,
    species_transition,
    state_ref,
)
from spheroconal.oracle import fd_operator, make_grid, state_field
from spheroconal.polyalg import BiSnPoly, Species, divide_by_scale, invert_basis
from spheroconal.elliptic import jacobi

from _forms import fit_in_basis, h2pair, linear_l1_alphas

# Expected angular actions on the degree-1 states: nine entries, all 0 or +-1.
DEGREE1_ANGULAR = {
    ("x", "x"): {},
    ("x", "y"): {"z": 1.0},
    ("x", "z"): {"y": -1.0},
    ("y", "x"): {"z": -1.0},
    ("y", "y"): {},
    ("y", "z"): {"x": 1.0},
    ("z", "x"): {"y": 1.0},
    ("z", "y"): {"x": -1.0},
    ("z", "z"): {},
}


def sp(tag):
    return Species.from_tag(tag)


def term_map(dec: LadderDecomposition) -> dict:
    return {
        (t.target.ell, t.target.label, t.target.n1): t.coefficient for t in dec.terms
    }


# ---------------------------------------------------------------------------
# Angular momentum


def test_degree1_angular_actions_are_unit(modulus_config):
    _, cfg = modulus_config
    basis = {s.label: s for s in build_basis(1, cfg)}
    for (axis, source), want in DEGREE1_ANGULAR.items():
        dec = apply_angular_momentum(axis, basis[source], cfg)
        assert dec.convention == L_CONVENTION
        got = {t.target.label: t.coefficient for t in dec.terms}
        assert set(got) == set(want), (axis, source)
        for label, value in want.items():
            assert got[label] == pytest.approx(value, abs=1e-12), (axis, source)


def test_degree1_angular_actions_match_stencil(mid_config):
    grid = make_grid(mid_config, 1)
    basis = build_basis(1, mid_config)
    for axis in "xyz":
        for state in basis:
            dec = apply_angular_momentum(axis, state, mid_config)
            fd = fd_operator("L" + axis, state_field(state, *grid), mid_config)
            if not dec.terms:
                assert np.abs(fd.values).max() < 1e-6
                continue
            coeffs, residual = fit_in_basis(fd, basis)
            assert residual < 1e-6, (axis, state.label)
            want = {t.target.label: t.coefficient for t in dec.terms}
            for i, target in enumerate(basis):
                assert coeffs[i] == pytest.approx(
                    want.get(target.label, 0.0), abs=1e-6
                ), (axis, state.label, target.label)


def test_species_transitions():
    # L_z maps the x family onto the y family; P_x maps trivial onto x.
    assert species_transition("Lz", (sp("d"), sp("s"))) == (sp("c"), sp("c"))
    assert species_transition("Px", "1") == (sp("d"), sp("s"))
    assert species_transition("Ly", (sp("ds"), sp("sd"))) == (sp("1"), sp("1"))
    # Applying the same operator twice returns to the original family.
    pair = (sp("dc"), sp("sc"))
    assert species_transition("Lx", species_transition("Lx", pair)) == pair
    with pytest.raises(ValueError, match="unknown operator"):
        species_transition("Qx", pair)


def test_degree2_cross_family_coefficients(modulus_config):
    k1, cfg = modulus_config
    h_lo, h_hi = h2pair(k1)
    c1 = 1.0 / (h_lo - h_hi)
    (xz_state,) = [s for s in build_basis(2, cfg) if s.label == "xz"]
    got = term_map(apply_angular_momentum("y", xz_state, cfg))
    assert set(got) == {(2, "1", 0), (2, "1", 2)}
    assert got[(2, "1", 0)] == pytest.approx(2.0 * c1, abs=1e-12)
    assert got[(2, "1", 2)] == pytest.approx(-2.0 * c1, abs=1e-12)


def test_angular_matrix_mirrors_decompositions(mid_config):
    basis = build_basis(2, mid_config)
    index = {(s.label, s.n1): i for i, s in enumerate(basis)}
    for axis in "xyz":
        mat = angular_momentum_matrix(axis, 2, mid_config)
        want = np.zeros_like(mat)
        for j, s in enumerate(basis):
            for t in apply_angular_momentum(axis, s, mid_config).terms:
                want[index[(t.target.label, t.target.n1)], j] = 1j * t.coefficient
        assert np.array_equal(mat, want)


def test_commutators_casimir_and_energy_closure(mid_config, modulus_config):
    _, cfg = modulus_config
    for config in (mid_config, cfg):
        for ell in range(4):
            mats = {ax: angular_momentum_matrix(ax, ell, config) for ax in "xyz"}
            for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
                comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                assert np.abs(comm - 1j * mats[c]).max() < 1e-8, (ell, a, b)
            casimir = sum(mats[ax] @ mats[ax] for ax in "xyz")
            eye = ell * (ell + 1) * np.eye(2 * ell + 1)
            assert np.abs(casimir - eye).max() < 1e-8, ell
            # sum(e_i L_i^2) is diagonal with the reduced energies.
            e1, e2, e3 = config.e
            weighted = (
                e1 * mats["x"] @ mats["x"]
                + e2 * mats["y"] @ mats["y"]
                + e3 * mats["z"] @ mats["z"]
            )
            diag = np.diag([s.estar2 for s in build_basis(ell, config)])
            assert np.abs(weighted - diag).max() < 1e-8, ell


def test_angular_actions_divide_through_degree6(mid_config):
    # The metric-factor quotient inside apply_angular_momentum verifies its
    # own remainder; surviving for every state and axis is the divisibility
    # statement.
    for ell in range(7):
        for state in build_basis(ell, mid_config):
            for axis in "xyz":
                dec = apply_angular_momentum(axis, state, mid_config)
                for t in dec.terms:
                    assert t.target.ell == ell


@pytest.mark.parametrize(
    "cfg",
    [
        *(from_e1(e1_from_modulus(k)) for k in (0.3, 0.5, 0.7)),
        # These two rebuild a different k1sq through e1_from_modulus -> from_e1.
        from_e1(0.7545098885474434),
        from_moments(1.0, 2.0, 3.0),
    ],
    ids=["k1sq=0.3", "k1sq=0.5", "k1sq=0.7", "e1=0.7545098885474434", "moments=1,2,3"],
)
def test_config_argument_is_optional(cfg):
    for state in build_basis(1, cfg) + build_basis(6, cfg):
        for axis in "xyz":
            assert apply_angular_momentum(axis, state) == apply_angular_momentum(axis, state, cfg)
            assert apply_linear_momentum(axis, state) == apply_linear_momentum(axis, state, cfg)


def test_axis_validation(mid_config):
    state = build_basis(1, mid_config)[0]
    with pytest.raises(ValueError, match="axis must be"):
        apply_angular_momentum("w", state, mid_config)
    with pytest.raises(ValueError, match="axis must be"):
        apply_linear_momentum("xy", state, mid_config)


def test_config_of_another_asymmetry_is_refused(mid_config):
    state = build_basis(3, mid_config)[0]
    other = from_e1(0.9)
    for apply in (apply_angular_momentum, apply_linear_momentum):
        with pytest.raises(ValueError, match="k1sq"):
            apply("x", state, other)
    with pytest.raises(ValueError, match="k1sq"):
        shift_nodes(state, +1, other)


# ---------------------------------------------------------------------------
# Node shifts


def test_shift_nodes_walks_the_trivial_family(mid_config):
    family = sorted(
        (s for s in build_basis(4, mid_config) if s.label == "1"),
        key=lambda s: s.n1,
    )
    assert [s.n1 for s in family] == [0, 2, 4]
    up = shift_nodes(family[0], +1, mid_config)
    assert (up.n1, up.n2) == (2, 2)
    top = shift_nodes(up, +1, mid_config)
    assert (top.n1, top.n2) == (4, 0)
    assert top.h1 > up.h1 > family[0].h1
    down = shift_nodes(top, -1, mid_config)
    assert (down.n1, down.n2) == (2, 2)
    with pytest.raises(LadderEnd, match="already at the multiplet end"):
        shift_nodes(top, +1, mid_config)
    with pytest.raises(LadderEnd):
        shift_nodes(family[0], -1, mid_config)


def test_shift_nodes_rejects_bad_direction_and_singletons(mid_config):
    (ground,) = build_basis(0, mid_config)
    with pytest.raises(ValueError, match=r"direction must be \+1 or -1"):
        shift_nodes(ground, 0, mid_config)
    with pytest.raises(LadderEnd):
        shift_nodes(ground, +1, mid_config)
    (xy_state,) = [s for s in build_basis(2, mid_config) if s.label == "xy"]
    with pytest.raises(LadderEnd):
        shift_nodes(xy_state, +1, mid_config)


def test_state_ref_fields(mid_config):
    (xy_state,) = [s for s in build_basis(2, mid_config) if s.label == "xy"]
    ref = state_ref(xy_state)
    assert (ref.ell, ref.label, ref.n1, ref.n2) == (2, "xy", 1, 1)
    assert ref.species_tags == ("dc", "sc")


# ---------------------------------------------------------------------------
# Linear momentum


def test_linear_on_ground_state_is_the_cosine(modulus_config):
    _, cfg = modulus_config
    (ground,) = build_basis(0, cfg)
    for axis, label in (("x", "x"), ("y", "y"), ("z", "z")):
        dec = apply_linear_momentum(axis, ground, cfg)
        assert dec.convention == P_CONVENTION
        got = term_map(dec)
        assert set(got) == {(1, label, 0 if label == "x" else 1)}
        (coefficient,) = got.values()
        assert coefficient == pytest.approx(1.0, abs=1e-12)


def test_linear_cross_terms_are_unit(modulus_config):
    _, cfg = modulus_config
    basis = {s.label: s for s in build_basis(1, cfg)}
    for axis, source, target in (
        ("y", "x", "xy"),
        ("z", "x", "xz"),
        ("x", "y", "xy"),
        ("z", "y", "yz"),
        ("x", "z", "xz"),
        ("y", "z", "yz"),
    ):
        got = term_map(apply_linear_momentum(axis, basis[source], cfg))
        assert len(got) == 1, (axis, source)
        (key, coefficient), = got.items()
        assert key[:2] == (2, target)
        assert coefficient == pytest.approx(1.0, abs=1e-12)


def test_linear_diagonal_degree1(modulus_config):
    k1, cfg = modulus_config
    alpha02, _, alpha20, _ = linear_l1_alphas(k1)
    a_want = (2.0 + alpha20) / (3.0 * (alpha02 - alpha20))
    b_want = -1.0 / 3.0 - a_want
    basis = {s.label: s for s in build_basis(1, cfg)}
    got = term_map(apply_linear_momentum("x", basis["x"], cfg))
    assert set(got) == {(0, "1", 0), (2, "1", 0), (2, "1", 2)}
    assert got[(0, "1", 0)] == pytest.approx(1.0, abs=1e-12)
    assert got[(2, "1", 0)] == pytest.approx(a_want, abs=1e-12)
    assert got[(2, "1", 2)] == pytest.approx(b_want, abs=1e-12)
    if k1 == 0.5:
        assert got[(2, "1", 0)] == pytest.approx(-0.4553418012614795, abs=1e-13)
        assert got[(2, "1", 2)] == pytest.approx(0.1220084679281462, abs=1e-13)


def test_linear_bracket_fields_degree1(mid_config):
    chi1 = np.linspace(-0.8, 0.8, 21)
    chi2 = np.linspace(-0.7, 0.7, 19)
    s1, _, d1 = jacobi(chi1, mid_config.k1sq)
    s2, _, d2 = jacobi(chi2, mid_config.k2sq)
    basis = {s.label: s for s in build_basis(1, mid_config)}
    # Diagonal: r d(x)/dx restricted to the sphere is 1 - x^2.
    g_x = 1.0 - np.outer(d1 * d1, s2 * s2)
    got = linear_momentum_bracket("x", basis["x"]).evaluate_grid(chi1, chi2)
    assert np.abs(got - g_x).max() < 1e-12
    # Off-diagonal: r d(x)/dy = -xy on the sphere.
    (xy_state,) = [s for s in build_basis(2, mid_config) if s.label == "xy"]
    psi_xy = xy_state.wavefunction.evaluate_grid(chi1, chi2)
    got_xy = linear_momentum_bracket("y", basis["x"]).evaluate_grid(chi1, chi2)
    assert np.abs(got_xy + psi_xy).max() < 1e-12


def test_linear_actions_match_stencil_degree1(mid_config):
    # The oracle field is (l+1)/(2l+1) times the lowering group minus
    # l times the raising group; fit it in the joint neighbor basis.
    grid = make_grid(mid_config, 1)
    basis1 = build_basis(1, mid_config)
    joint = build_basis(0, mid_config) + build_basis(2, mid_config)
    for axis in "xyz":
        for state in basis1:
            dec = apply_linear_momentum(axis, state, mid_config)
            fd = fd_operator("P" + axis, state_field(state, *grid), mid_config)
            coeffs, residual = fit_in_basis(fd, joint)
            assert residual < 1e-6, (axis, state.label)
            want = term_map(dec)
            for i, target in enumerate(joint):
                weight = 2.0 / 3.0 if target.ell == 0 else -1.0
                expected = weight * want.get((target.ell, target.label, target.n1), 0.0)
                assert coeffs[i] == pytest.approx(expected, abs=1e-6), (
                    axis,
                    state.label,
                    target.label,
                )


def test_linear_targets_flip_one_parity(mid_config):
    axis_index = {"x": 0, "y": 1, "z": 2}
    for ell in range(4):
        for state in build_basis(ell, mid_config):
            for axis in "xyz":
                dec = apply_linear_momentum(axis, state, mid_config)
                for t in dec.terms:
                    assert t.target.ell in (ell - 1, ell + 1)
                    target = next(
                        s
                        for s in build_basis(t.target.ell, mid_config)
                        if (s.label, s.n1) == (t.target.label, t.target.n1)
                    )
                    for i in range(3):
                        if i == axis_index[axis]:
                            assert target.parities[i] == -state.parities[i]
                        else:
                            assert target.parities[i] == state.parities[i]


# ---------------------------------------------------------------------------
# Cached families and gradients


OPS = ("Lx", "Ly", "Lz", "Px", "Py", "Pz")


def _decompose(op, state, cfg):
    apply = apply_angular_momentum if op[0] == "L" else apply_linear_momentum
    return apply(op[1], state, cfg)


def _scratch_expand(block, ell, cfg) -> dict:
    """Paired-slot weights of a block, inverting the family from build_basis."""
    members = sorted(
        (
            s
            for s in (build_basis(ell, cfg) if ell >= 0 else [])
            if (s.species_a, s.species_b) == (block.species_a, block.species_b)
        ),
        key=lambda s: s.n1,
    )
    size = len(members)
    if not size:
        return {}
    fa = np.zeros((size, size))
    fb = np.zeros((size, size))
    for i, s in enumerate(members):
        fa[: len(s.lame1.poly.coeffs), i] = s.lame1.poly.coeffs
        cb = members[size - 1 - i].lame2.poly.coeffs
        fb[: len(cb), i] = cb
    shape = block.coeffs.shape
    c = np.zeros((size, size))
    c[: min(shape[0], size), : min(shape[1], size)] = block.coeffs[:size, :size]
    weights = invert_basis(fa) @ c @ invert_basis(fb).T
    wscale = max(float(np.abs(weights).max()), 1.0)
    out = {}
    for i, s in enumerate(members):
        w = float(weights[i, size - 1 - i])
        if abs(w) > ladder._DROP_RTOL * wscale:
            out[(s.ell, s.label, s.n1)] = w
    return out


def _scratch_terms(op, state, cfg) -> dict:
    psi, ell, axis = state.wavefunction, state.ell, op[1]
    if op[0] == "L":
        action = divide_by_scale(ladder._bracket(op, psi)).scaled(-1.0)
        return _scratch_expand(action, ell, cfg)
    la, lb = ladder._COSINES[axis]
    cosine = ladder._mul(psi, la, lb)
    lowering = cosine.scaled(float(ell)).plus(linear_momentum_bracket(axis, state))
    raising = cosine.plus(lowering.scaled(-1.0 / (2 * ell + 1)))
    return {**_scratch_expand(lowering, ell - 1, cfg), **_scratch_expand(raising, ell + 1, cfg)}


def test_cached_families_match_a_from_scratch_inversion():
    cfg = from_e1(0.81)
    for ell in range(1, 9):
        for state in build_basis(ell, cfg):
            for op in OPS:
                assert term_map(_decompose(op, state, cfg)) == _scratch_terms(op, state, cfg), (
                    op,
                    state_ref(state),
                )


def test_decompositions_do_not_depend_on_call_order():
    cfg = from_e1(0.6614)
    calls = [(op, s) for ell in (4, 5) for s in build_basis(ell, cfg) for op in OPS]
    forward = [_decompose(op, s, cfg) for op, s in calls]
    backward = [_decompose(op, s, cfg) for op, s in reversed(calls)][::-1]
    again = [_decompose(op, s, cfg) for op, s in calls]
    assert forward == backward == again


def test_failing_decomposition_fails_on_every_call(monkeypatch):
    cfg = from_e1(0.5713)
    (state,) = [s for s in build_basis(3, cfg) if s.label == "xyz"]
    ladder._family.cache_clear()
    ladder._images.cache_clear()
    calls = []

    def singular(matrix):
        calls.append(matrix)
        raise Singular("forced")

    monkeypatch.setattr(ladder, "invert_basis", singular)
    for _ in range(2):
        with pytest.raises(Singular, match="forced"):
            apply_angular_momentum("z", state, cfg)
    assert len(calls) == 2
    monkeypatch.undo()
    assert apply_angular_momentum("z", state, cfg).terms


def test_caches_stay_bounded_over_a_long_sweep():
    caches = (
        lame_solver._eigenvalues,
        lame_solver._eigenpolynomials,
        harmonics._build_basis_cached,
        ladder._family,
        ladder._images,
    )
    for e1 in np.linspace(0.56, 0.94, 360):
        cfg = from_e1(float(e1))
        for state in build_basis(1, cfg):
            ladder._images("Lx", 1, cfg, state.species_a, state.species_b)
    for cache in caches:
        info = cache.cache_info()
        # 360 fresh asymmetries add 2880 eigenvalue solves, 2160 polynomial
        # solves (the families read every member's polynomials), 360 bases,
        # 1080 families and 1080 images.
        assert info.currsize == info.maxsize


def test_image_cache_holds_a_ladder_table_round():
    # Six operators on the 4 families of each degree (3 at degree 1), over
    # degrees 1..13 at two asymmetries and 14..16 at two more: 756 images.
    assert ladder._images.cache_info().maxsize >= 6 * (2 * (3 + 4 * 12) + 2 * 4 * 3)


def test_stray_weight_names_the_failing_member(monkeypatch):
    cfg = from_e1(0.6123)
    family = sorted((s for s in build_basis(4, cfg) if s.label == "1"), key=lambda s: s.n1)
    real = ladder.divide_by_scale

    def leaky(p):
        q = real(p)
        coeffs = q.coeffs.copy()
        coeffs[1, 0, 0] += 0.5  # a constant lands on every slot
        return BiSnPoly(q.species_a, q.species_b, coeffs, q.k1sq, q.k2sq)

    monkeypatch.setattr(ladder, "divide_by_scale", leaky)
    for state in family:
        with pytest.raises(ProjectionResidual, match="unpaired") as info:
            apply_angular_momentum("z", state, cfg)
        assert str(info.value).startswith(f"Lz on {state_ref(family[1])}: weight")
    monkeypatch.undo()
    assert all(apply_angular_momentum("z", s, cfg).terms for s in family)


def test_family_images_match_one_block_expansions_over_the_range():
    """Both ends of one family per label at degrees 16, 32 and 50, at
    e1 = 0.5001, 0.55 and 0.9999: every operator's family-batched terms equal
    the one-block expansion's, within 1e-11 of the largest coefficient, and
    land in the operator's species transition."""
    for e1 in (0.5001, 0.55, 0.9999):
        cfg = from_e1(e1)
        for ell in (16, 32, 50):
            basis = build_basis(ell, cfg)
            for label in LABEL_ORDER:
                family = [s for s in basis if s.label == label]
                for state in family[:: max(len(family) - 1, 1)]:
                    for op in OPS:
                        got = term_map(_decompose(op, state, cfg))
                        want = _scratch_terms(op, state, cfg)
                        where = (e1, op, state_ref(state))
                        assert got.keys() == want.keys(), where
                        scale = max((abs(w) for w in want.values()), default=1.0)
                        for key, w in want.items():
                            assert abs(got[key] - w) <= 1e-11 * scale, (where, key)
                        pair = species_transition(op, (state.species_a, state.species_b))
                        assert {key[1] for key in got} <= {label_for_species(pair[0])}, where


def test_every_op_succeeds_at_degrees_14_to_16():
    """Every L and P decomposition of every state of degrees 14..16 at
    e1 = 0.55 and 0.75 succeeds, in under 10 s."""
    start = time.perf_counter()
    for e1 in (0.55, 0.75):
        cfg = from_e1(e1)
        for ell in (14, 15, 16):
            for state in build_basis(ell, cfg):
                for op in OPS:
                    dec = _decompose(op, state, cfg)
                    assert dec.operator == op
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"degrees 14..16 took {elapsed:.2f} s"


def test_degree50_angular_momentum_spectrum_and_casimir():
    """At degree 50 (e1 = 0.55) the eigenvalues of each L matrix are
    -50..50 within 1e-11 max|L|, and Lx^2 + Ly^2 + Lz^2 = l(l+1) within
    1e-10 (max|L|)^2, in under 10 s."""
    start = time.perf_counter()
    ell = 50
    cfg = from_e1(0.55)
    mats = {ax: angular_momentum_matrix(ax, ell, cfg) for ax in "xyz"}
    scale = max(float(np.abs(m).max()) for m in mats.values())
    for axis, mat in mats.items():
        eigs = np.linalg.eigvals(mat)
        assert np.abs(eigs.imag).max() <= 1e-11 * scale, axis
        gap = np.abs(np.sort(eigs.real) - np.arange(-ell, ell + 1)).max()
        assert gap <= 1e-11 * float(np.abs(mat).max()), (axis, gap)
    casimir = sum(m @ m for m in mats.values())
    closure = np.abs(casimir - ell * (ell + 1) * np.eye(2 * ell + 1)).max()
    assert closure <= 1e-10 * scale**2, closure
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"degree-50 matrices took {elapsed:.2f} s"
