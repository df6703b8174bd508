"""Exact ladder actions connecting spheroconal harmonics.

Three families of shifts are realized as closed polynomial algebra:

* ``shift_nodes`` walks one species multiplet at fixed degree, trading two
  nodes between the coordinates (n1, n2) -> (n1 +- 2, n2 -+ 2).
* ``apply_angular_momentum`` decomposes L_x, L_y, L_z acting on a harmonic
  over the degree-l basis. Reported coefficients are the action divided by
  i*hbar, so they are real and the matrices i*M satisfy the usual
  commutation and Casimir identities.
* ``apply_linear_momentum`` decomposes the angular content of p_x, p_y, p_z
  over the degree l-1 and l+1 bases. The lowering group expands the pure
  gradient content F, defined by grad_i(r^l psi) = r^(l-1) F; the raising
  group expands H = cosine * psi - F/(2l+1), the direction-cosine product
  stripped of its lower-degree content. Both groups are exact polynomial
  identities, cross-checked against the grid oracle through
  bracket/W = (l+1)/(2l+1) * F - l * H.

Every quotient by the metric factor W is exact (NotDivisible would flag a
broken identity), and any operator image with content outside the expected
target family raises ProjectionResidual.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymmetry import AsymmetryConfig, e1_from_modulus, from_e1
from .errors import LadderEnd, ProjectionResidual
from .harmonics import (
    LABEL_ORDER,
    SpheroconalHarmonic,
    build_basis,
    species_for_label,
)
from .polyalg import (
    BiSnPoly,
    Species,
    d_chi1,
    d_chi2,
    divide_by_scale,
    invert_basis,
    mul_factor_bi,
)

__all__ = [
    "StateRef",
    "LadderTerm",
    "LadderDecomposition",
    "state_ref",
    "shift_nodes",
    "species_transition",
    "apply_angular_momentum",
    "apply_linear_momentum",
    "angular_momentum_matrix",
    "linear_momentum_bracket",
]

L_CONVENTION = "action divided by i*hbar"
P_CONVENTION = "angular bracket term, scale factor cancelled"

# Letters toggled on (side 1, side 2) by each operator.
_TRANSITIONS = {
    "Lx": ("sc", "cd"),
    "Ly": ("sd", "sd"),
    "Lz": ("cd", "sc"),
    "Px": ("d", "s"),
    "Py": ("c", "c"),
    "Pz": ("s", "d"),
}

# Direction cosines as (letter on side 1, letter on side 2).
_COSINES = {"x": ("d", "s"), "y": ("c", "c"), "z": ("s", "d")}

_DROP_RTOL = 1e-10
_OFF_RTOL = 1e-8


@dataclass(frozen=True)
class StateRef:
    """Identity of one harmonic: degree, cartesian label, node counts."""

    ell: int
    label: str
    n1: int
    n2: int

    @property
    def species_tags(self) -> tuple[str, str]:
        a, b = species_for_label(self.label)
        return a.tag(1), b.tag(2)


@dataclass(frozen=True)
class LadderTerm:
    target: StateRef
    coefficient: float


@dataclass(frozen=True)
class LadderDecomposition:
    """One operator image expanded over harmonic states.

    ``convention`` records what the coefficients mean: for the angular
    momenta, the action with the i*hbar prefactor divided out; for the
    linear momenta, the groups described in the module docstring, computed
    from the angular bracket with the metric scale cancelled.
    """

    operator: str
    source: StateRef
    terms: tuple[LadderTerm, ...]
    convention: str


def state_ref(state: SpheroconalHarmonic) -> StateRef:
    return StateRef(ell=state.ell, label=state.label, n1=state.n1, n2=state.n2)


def _config_of(state: SpheroconalHarmonic, config: AsymmetryConfig | None) -> AsymmetryConfig:
    """Recover the dimensionless configuration a state was built with.

    The moduli are the state's own, so the basis is solved at exactly the
    state's asymmetry; only the e-triple is rebuilt (through e1), since the
    decompositions do not depend on it.
    """
    if config is not None:
        return config
    psi = state.wavefunction
    e = from_e1(e1_from_modulus(psi.k1sq)).e
    return AsymmetryConfig(e=e, k1sq=psi.k1sq, k2sq=psi.k2sq)


def shift_nodes(
    state: SpheroconalHarmonic, direction: int, config: AsymmetryConfig | None = None
) -> SpheroconalHarmonic:
    """Neighbor of a state in its species multiplet: n1 -> n1 + 2*direction.

    direction must be +1 or -1; the complementary node count moves the
    opposite way so n1 + n2 = l is preserved. Walking past either end of
    the multiplet raises LadderEnd.
    """
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    cfg = _config_of(state, config)
    family = [s for s in build_basis(state.ell, cfg) if s.label == state.label]
    family.sort(key=lambda s: s.n1)
    pos = next(
        i for i, s in enumerate(family) if (s.n1, s.n2) == (state.n1, state.n2)
    )
    target = pos + direction
    if not 0 <= target < len(family):
        raise LadderEnd(
            f"state {state_ref(state)} is already at the multiplet end"
        )
    return family[target]


def species_transition(operator: str, species_ab) -> tuple[Species, Species]:
    """Species pair produced by one operator acting on a species pair.

    ``species_ab`` may be a cartesian label string or a (Species, Species)
    tuple; the return value is always the species tuple. The toggled letters
    on the two sides are partners (s and d swapped), so the result is again
    a valid harmonic family.
    """
    if operator not in _TRANSITIONS:
        raise ValueError(f"unknown operator {operator!r}")
    if isinstance(species_ab, str):
        pair = species_for_label(species_ab)
    else:
        pair = tuple(species_ab)
    flip1, flip2 = _TRANSITIONS[operator]
    return pair[0].flipped(flip1), pair[1].flipped(flip2)


def _mul(block: BiSnPoly, *letter_side: tuple[str, int]) -> BiSnPoly:
    for letter, side in letter_side:
        block = mul_factor_bi(block, letter, side)
    return block


# Gradients per wavefunction, dropped together with the wavefunction (whose
# hash is its identity, since BiSnPoly has eq=False).
_GRADIENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _gradients(psi: BiSnPoly) -> tuple[BiSnPoly, BiSnPoly]:
    """(d_chi1(psi), d_chi2(psi)), computed once per wavefunction."""
    pair = _GRADIENTS.get(psi)
    if pair is None:
        pair = _GRADIENTS[psi] = (d_chi1(psi), d_chi2(psi))
    return pair


def _angular_bracket(axis: str, psi: BiSnPoly) -> BiSnPoly:
    """The first-order bracket of L_axis/(−i*hbar), before division by W."""
    a, b = psi.k1sq, psi.k2sq
    g1, g2 = _gradients(psi)
    if axis == "x":
        t1 = _mul(g1, ("d", 1), ("c", 2), ("d", 2))
        t2 = _mul(g2, ("s", 1), ("c", 1), ("s", 2)).scaled(a)
    elif axis == "y":
        t1 = _mul(g1, ("c", 1), ("s", 2), ("d", 2)).scaled(-1.0)
        t2 = _mul(g2, ("s", 1), ("d", 1), ("c", 2))
    elif axis == "z":
        t1 = _mul(g1, ("s", 1), ("s", 2), ("c", 2)).scaled(-b)
        t2 = _mul(g2, ("c", 1), ("d", 1), ("d", 2)).scaled(-1.0)
    else:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return t1.plus(t2)


def _linear_bracket(axis: str, psi: BiSnPoly) -> BiSnPoly:
    """The angular derivative bracket of p_axis, before division by W."""
    a, b = psi.k1sq, psi.k2sq
    g1, g2 = _gradients(psi)
    if axis == "x":
        t1 = _mul(g1, ("s", 1), ("c", 1), ("s", 2)).scaled(-a)
        t2 = _mul(g2, ("d", 1), ("c", 2), ("d", 2))
    elif axis == "y":
        t1 = _mul(g1, ("s", 1), ("d", 1), ("c", 2)).scaled(-1.0)
        t2 = _mul(g2, ("c", 1), ("s", 2), ("d", 2)).scaled(-1.0)
    elif axis == "z":
        t1 = _mul(g1, ("c", 1), ("d", 1), ("d", 2))
        t2 = _mul(g2, ("s", 1), ("s", 2), ("c", 2)).scaled(-b)
    else:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return t1.plus(t2)


@lru_cache(maxsize=1024)
def _family(
    ell: int, config: AsymmetryConfig, species_a: Species, species_b: Species
) -> tuple[tuple[SpheroconalHarmonic, ...], np.ndarray | None, np.ndarray | None]:
    """One degree-l species family, sorted by n1, and its two basis inverses.

    The family basis factorizes per coordinate: column i of ``fa`` holds the
    first-side coefficients of member i, column i of ``fb`` the second-side
    coefficients of member size-1-i. Returns ((), None, None) when the
    degree has no such family. An exception (Singular) is not cached.
    """
    members = [
        s
        for s in (build_basis(ell, config) if ell >= 0 else [])
        if (s.species_a, s.species_b) == (species_a, species_b)
    ]
    if not members:
        return (), None, None
    members.sort(key=lambda s: s.n1)
    size = len(members)

    fa = np.zeros((size, size))
    fb = np.zeros((size, size))
    for i, s in enumerate(members):
        ca = s.lame1.poly.coeffs
        fa[: len(ca), i] = ca
        cb = members[size - 1 - i].lame2.poly.coeffs
        fb[: len(cb), i] = cb
    inv_a, inv_b = invert_basis(fa), invert_basis(fb)
    # Shared by every caller through the cache, so frozen.
    inv_a.setflags(write=False)
    inv_b.setflags(write=False)
    return tuple(members), inv_a, inv_b


def _expand(
    block: BiSnPoly, ell: int, config: AsymmetryConfig, context: str
) -> list[tuple[SpheroconalHarmonic, float]]:
    """Expand a block over the matching species family at one degree.

    The expansion reduces to the two per-coordinate basis inverses of
    ``_family``; weights landing outside the paired (rank, complementary
    rank) slots mean the block is not a sum of harmonics of this degree and
    raise ProjectionResidual.
    """
    members, inv_a, inv_b = _family(ell, config, block.species_a, block.species_b)
    if not members:
        if block.max_abs > 1e-12:
            raise ProjectionResidual(
                f"{context}: no degree-{ell} family for species pair "
                f"({block.species_a.tag(1)}, {block.species_b.tag(2)}) but "
                f"content of size {block.max_abs:.3e} remains"
            )
        return []
    size = len(members)

    shape = block.coeffs.shape
    scale = max(block.max_abs, 1e-30)
    if shape[0] > size or shape[1] > size:
        overflow = max(
            float(np.abs(block.coeffs[size:, :]).max()) if shape[0] > size else 0.0,
            float(np.abs(block.coeffs[:, size:]).max()) if shape[1] > size else 0.0,
        )
        if overflow > _OFF_RTOL * scale:
            raise ProjectionResidual(
                f"{context}: polynomial degree exceeds the degree-{ell} family"
            )
    c = np.zeros((size, size))
    c[: min(shape[0], size), : min(shape[1], size)] = block.coeffs[:size, :size]

    weights = inv_a @ c @ inv_b.T
    wscale = max(float(np.abs(weights).max()), 1.0)
    unpaired = ~np.eye(size, dtype=bool)[::-1]
    stray = np.argwhere(unpaired & (np.abs(weights) > _OFF_RTOL * wscale))
    if stray.size:
        i, j = stray[0]
        raise ProjectionResidual(
            f"{context}: weight {weights[i, j]:.3e} on the unpaired "
            f"eigenvalue slot ({i}, {j})"
        )
    out: list[tuple[SpheroconalHarmonic, float]] = []
    for i, s in enumerate(members):
        w = float(weights[i, size - 1 - i])
        if abs(w) > _DROP_RTOL * wscale:
            out.append((s, w))
    return out


def _sorted_terms(pairs: list[tuple[SpheroconalHarmonic, float]]) -> tuple[LadderTerm, ...]:
    pairs = sorted(
        pairs, key=lambda p: (p[0].ell, LABEL_ORDER.index(p[0].label), p[0].n1)
    )
    return tuple(LadderTerm(target=state_ref(s), coefficient=w) for s, w in pairs)


def apply_angular_momentum(
    axis: str, state: SpheroconalHarmonic, config: AsymmetryConfig | None = None
) -> LadderDecomposition:
    """Decompose L_axis(state)/(i*hbar) over the same-degree basis.

    The coefficients are exact up to the quotient and basis-solve roundoff;
    the target family is the species transition of the source family, and
    the expansion is validated slot by slot (ProjectionResidual on any
    leakage outside the paired eigenvalue slots).
    """
    if axis not in "xyz" or len(axis) != 1:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    cfg = _config_of(state, config)
    bracket = _angular_bracket(axis, state.wavefunction)
    action = divide_by_scale(bracket).scaled(-1.0)
    expected = species_transition("L" + axis, (state.species_a, state.species_b))
    if (action.species_a, action.species_b) != expected:
        raise AssertionError(
            f"bracket produced species ({action.species_a.tag(1)}, "
            f"{action.species_b.tag(2)}), expected {expected}"
        )
    terms = _expand(action, state.ell, cfg, f"L{axis} on {state_ref(state)}")
    return LadderDecomposition(
        operator="L" + axis,
        source=state_ref(state),
        terms=_sorted_terms(terms),
        convention=L_CONVENTION,
    )


def apply_linear_momentum(
    axis: str, state: SpheroconalHarmonic, config: AsymmetryConfig | None = None
) -> LadderDecomposition:
    """Decompose the angular action of p_axis over the degree l-1 and l+1 bases.

    See the module docstring for the exact meaning of the two coefficient
    groups. At l = 0 the lowering group is empty and the raising group is
    the direction cosine itself (coefficient 1 on the matching degree-1
    state).
    """
    if axis not in "xyz" or len(axis) != 1:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    cfg = _config_of(state, config)
    ell = state.ell
    psi = state.wavefunction

    gradient = divide_by_scale(_linear_bracket(axis, psi))
    la, lb = _COSINES[axis]
    cosine = _mul(psi, (la, 1), (lb, 2))
    lowering = cosine.scaled(float(ell)).plus(gradient)
    raising = cosine.plus(lowering.scaled(-1.0 / (2 * ell + 1)))

    context = f"P{axis} on {state_ref(state)}"
    pairs = _expand(lowering, ell - 1, cfg, context + " (lowering)")
    pairs += _expand(raising, ell + 1, cfg, context + " (raising)")
    return LadderDecomposition(
        operator="P" + axis,
        source=state_ref(state),
        terms=_sorted_terms(pairs),
        convention=P_CONVENTION,
    )


def linear_momentum_bracket(axis: str, state: SpheroconalHarmonic) -> BiSnPoly:
    """The function r * d(psi)/d(x_axis) on the sphere, as a polynomial block.

    This is the angular bracket of p_axis with the metric scale cancelled,
    the quantity tabulated by the grid oracle's Px/Py/Pz kinds. It equals
    (l+1)/(2l+1) * F - l * H in terms of the reported ladder groups.
    """
    return divide_by_scale(_linear_bracket(axis, state.wavefunction))


def angular_momentum_matrix(
    axis: str, ell: int, config: AsymmetryConfig
) -> np.ndarray:
    """Matrix of L_axis (hbar = 1) in the ordered degree-l basis.

    Entries are i times the real decomposition coefficients, so the three
    matrices satisfy [Lx, Ly] = i Lz and sum to the Casimir l(l+1).
    """
    basis = build_basis(ell, config)
    index = {(s.label, s.n1): i for i, s in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, s in enumerate(basis):
        for term in apply_angular_momentum(axis, s, config).terms:
            mat[index[(term.target.label, term.target.n1)], j] = 1j * term.coefficient
    return mat
