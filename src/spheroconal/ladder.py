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

Each operator acts on a whole species family at once, as one stack, and a
state's decomposition is its column of the cached target x source matrix;
so a failure on any member fails that operator for the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymmetry import AsymmetryConfig, e1_from_modulus, from_e1
from .errors import LadderEnd, ProjectionResidual
from .harmonics import (
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

# Direction cosines as (letter on side 1, letter on side 2).
_COSINES = {"x": ("d", "s"), "y": ("c", "c"), "z": ("s", "d")}

# Each bracket is a sum over d_chi1(psi) and d_chi2(psi), in that order, of
# sign * modulus * gradient * (side-1 letters) * (side-2 letters), with the
# modulus 1, a = k1^2 or b = k2^2. The letter order fixes the rounding. Both
# terms toggle the same letters, which give the operator's species transition.
_BRACKETS = {
    "Lx": ((1.0, "", "d", "cd"), (1.0, "a", "sc", "s")),
    "Ly": ((-1.0, "", "c", "sd"), (1.0, "", "sd", "c")),
    "Lz": ((-1.0, "b", "s", "sc"), (-1.0, "", "cd", "d")),
    "Px": ((-1.0, "a", "sc", "s"), (1.0, "", "d", "cd")),
    "Py": ((-1.0, "", "sd", "c"), (-1.0, "", "c", "sd")),
    "Pz": ((1.0, "", "cd", "d"), (-1.0, "b", "s", "sc")),
}

_DROP_RTOL = 1e-10
_OFF_RTOL = 1e-8

_Image = tuple[tuple[SpheroconalHarmonic, ...], np.ndarray]


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
    decompositions do not depend on it. A given configuration must carry
    the state's k1sq (ValueError otherwise).
    """
    k1sq = state.lame1.ksq
    if config is None:
        e = from_e1(e1_from_modulus(k1sq)).e
        return AsymmetryConfig(e=e, k1sq=k1sq, k2sq=state.lame2.ksq)
    if config.k1sq != k1sq:
        raise ValueError(f"config has k1sq = {config.k1sq!r}, the state {k1sq!r}")
    return config


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
    if operator not in _BRACKETS:
        raise ValueError(f"unknown operator {operator!r}")
    if isinstance(species_ab, str):
        pair = species_for_label(species_ab)
    else:
        pair = tuple(species_ab)
    # The first term: d_chi1 toggles every side-1 letter, then the factors.
    _, _, side1, side2 = _BRACKETS[operator][0]
    return pair[0].flipped("scd" + side1), pair[1].flipped(side2)


def _mul(block: BiSnPoly, side1: str, side2: str) -> BiSnPoly:
    """Multiply by the letters of side 1, then by those of side 2, in order."""
    for side, letters in ((1, side1), (2, side2)):
        for letter in letters:
            block = mul_factor_bi(block, letter, side)
    return block


def _bracket(op: str, psi: BiSnPoly) -> BiSnPoly:
    """The first-order bracket of L/(-i*hbar) or of p, before division by W."""
    if op not in _BRACKETS:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {op[1:]!r}")
    moduli = {"": 1.0, "a": psi.k1sq, "b": psi.k2sq}
    rows = zip((d_chi1(psi), d_chi2(psi)), _BRACKETS[op])
    t1, t2 = (_mul(g, side1, side2).scaled(sign * moduli[m]) for g, (sign, m, side1, side2) in rows)
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
    stack: BiSnPoly, ell: int, config: AsymmetryConfig, sources, context: str
) -> _Image | None:
    """Expand a stack of blocks, block k the image of ``sources[k]``, over the
    matching species family at one degree.

    The expansion reduces to the two per-coordinate basis inverses of
    ``_family``; weights landing outside the paired (rank, complementary
    rank) slots mean a block is not a sum of harmonics of this degree and
    raise ProjectionResidual, naming the source through the format string
    ``context``. Returns None when the degree has no such family, else the
    family and its target x source weights, those below the drop tolerance
    set to 0.
    """
    members, inv_a, inv_b = _family(ell, config, stack.species_a, stack.species_b)

    def residual(k: int, message: str) -> ProjectionResidual:
        return ProjectionResidual(f"{context.format(state_ref(sources[k]))}: {message}")

    mag = np.abs(stack.coeffs)
    scale = mag.max(axis=(1, 2))
    if not members:
        live = np.flatnonzero(scale > 1e-12)
        if live.size:
            pair = f"({stack.species_a.tag(1)}, {stack.species_b.tag(2)})"
            content = scale[live[0]]
            raise residual(live[0], f"no degree-{ell} family for species pair {pair} but "
                           f"content of size {content:.3e} remains")
        return None
    size = len(members)
    c = stack.coeffs[:, :size, :size]
    mag[:, : c.shape[1], : c.shape[2]] = 0.0  # leaves what the family cannot hold
    over = np.flatnonzero(mag.max(axis=(1, 2)) > _OFF_RTOL * np.maximum(scale, 1e-30))
    if over.size:
        raise residual(over[0], f"polynomial degree exceeds the degree-{ell} family")
    padded = np.pad(c, ((0, 0), (0, size - c.shape[1]), (0, size - c.shape[2])))

    weights = inv_a @ padded @ inv_b.T
    wscale = np.maximum(np.abs(weights).max(axis=(1, 2)), 1.0)
    unpaired = ~np.eye(size, dtype=bool)[::-1]
    stray = np.argwhere(unpaired & (np.abs(weights) > _OFF_RTOL * wscale[:, None, None]))
    if stray.size:
        k, i, j = stray[0]
        raise residual(k, f"weight {weights[k, i, j]:.3e} on the unpaired eigenvalue "
                       f"slot ({i}, {j})")
    rank = np.arange(size)
    matrix = weights[:, rank, size - 1 - rank].T
    matrix[~(np.abs(matrix) > _DROP_RTOL * wscale)] = 0.0
    matrix.setflags(write=False)
    return members, matrix


@lru_cache(maxsize=1024)
def _images(
    op: str, ell: int, config: AsymmetryConfig, species_a: Species, species_b: Species
) -> tuple[_Image, ...]:
    """One operator on a degree-l species family: (target family, target x
    source matrix) per nonempty target family, in ascending degree, column j
    for source member j (sorted by n1). A failure is not cached.
    """
    sources = _family(ell, config, species_a, species_b)[0]
    stack = np.stack([s.wavefunction.coeffs for s in sources])
    psi = BiSnPoly(species_a, species_b, stack, config.k1sq, config.k2sq)
    quotient = divide_by_scale(_bracket(op, psi))
    context = op + " on {}"
    if op[0] == "L":
        blocks = [(ell, quotient.scaled(-1.0), context)]
    else:
        cosine = _mul(psi, *_COSINES[op[1]])
        lowering = cosine.scaled(float(ell)).plus(quotient)
        raising = cosine.plus(lowering.scaled(-1.0 / (2 * ell + 1)))
        blocks = [
            (ell - 1, lowering, context + " (lowering)"),
            (ell + 1, raising, context + " (raising)"),
        ]
    images = [_expand(block, target, config, sources, ctx) for target, block, ctx in blocks]
    return tuple(image for image in images if image)


def _decomposition(
    kind: str, axis: str, state: SpheroconalHarmonic, config: AsymmetryConfig | None
) -> LadderDecomposition:
    """The state's column of the operator's images on its family."""
    op = kind + axis
    cfg = _config_of(state, config)
    sources = _family(state.ell, cfg, state.species_a, state.species_b)[0]
    col = next(j for j, s in enumerate(sources) if s.n1 == state.n1)
    terms = tuple(
        LadderTerm(target=state_ref(t), coefficient=float(w))
        for targets, matrix in _images(op, state.ell, cfg, state.species_a, state.species_b)
        for t, w in zip(targets, matrix[:, col])
        if w
    )
    convention = L_CONVENTION if kind == "L" else P_CONVENTION
    return LadderDecomposition(op, state_ref(state), terms, convention)


def apply_angular_momentum(
    axis: str, state: SpheroconalHarmonic, config: AsymmetryConfig | None = None
) -> LadderDecomposition:
    """Decompose L_axis(state)/(i*hbar) over the same-degree basis.

    The coefficients are exact up to the quotient and basis-solve roundoff;
    the target family is the species transition of the source family, and
    the expansion is validated slot by slot (ProjectionResidual on any
    leakage outside the paired eigenvalue slots).
    """
    return _decomposition("L", axis, state, config)


def apply_linear_momentum(
    axis: str, state: SpheroconalHarmonic, config: AsymmetryConfig | None = None
) -> LadderDecomposition:
    """Decompose the angular action of p_axis over the degree l-1 and l+1 bases.

    See the module docstring for the exact meaning of the two coefficient
    groups. At l = 0 the lowering group is empty and the raising group is
    the direction cosine itself (coefficient 1 on the matching degree-1
    state).
    """
    return _decomposition("P", axis, state, config)


def linear_momentum_bracket(axis: str, state: SpheroconalHarmonic) -> BiSnPoly:
    """The function r * d(psi)/d(x_axis) on the sphere, as a polynomial block.

    This is the angular bracket of p_axis with the metric scale cancelled,
    the quantity tabulated by the grid oracle's Px/Py/Pz kinds. It equals
    (l+1)/(2l+1) * F - l * H in terms of the reported ladder groups.
    """
    return divide_by_scale(_bracket("P" + axis, state.wavefunction))


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
