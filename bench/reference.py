"""Checks made apart from the program: numpy on the |l, m> basis only.

Nothing here imports the package. Every check takes plain records (so the
same code judges library objects and parsed CLI output) and raises
``CheckFailed`` naming what disagreed.

The reference route builds the standard angular-momentum matrices of
degree l in the |l, m> basis, where the rotor operator sum(e_i L_i^2) is a
small Hermitian matrix whose eigenvalues are the reduced energies 2E*.
Ladder outputs are judged by properties that hold in any basis: the
eigenvalues of i*M (M the reported real matrix of L_axis / i) are -l..l,
-sum(M_axis^2) is l(l+1) times the identity, and the direction-cosine
matrices C_i = lowering / (2l + 1) + raising satisfy sum_i C_i C_i = 1.
"""

from __future__ import annotations

import numpy as np

AXES = "xyz"


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def e_from_e1(e1: float) -> tuple[float, float, float]:
    """The traceless triple of squared norm 3/2 whose largest entry is e1."""
    e2 = 0.5 * (-e1 + np.sqrt(3.0 * (1.0 - e1 * e1)))
    return (e1, float(e2), float(-e1 - e2))


def e_from_moments(moments) -> tuple[float, float, float]:
    """The asymmetry triple of ascending principal moments of inertia."""
    inv = 1.0 / np.asarray(moments, dtype=float)
    d = inv - inv.mean()
    return tuple(float(x) for x in d / np.sqrt(2.0 * (d @ d) / 3.0))


def spectrum_tol(ell: int) -> float:
    """Absolute tolerance on 2E*, h-sums and energies at degree ell.

    The reference eigenvalues carry roundoff of order eps * l(l+1), so the
    tolerance grows with the eigenvalue scale, not with the degree itself.
    """
    return 1e-12 * max(1, ell * (ell + 1))


def ladder_tol(ell: int) -> float:
    """Tolerance on the ladder-matrix identities at degree ell.

    The program expands ladder images by inverting monomial-coefficient
    bases whose condition number grows about fourfold per degree; the
    Casimir gap measured at this tolerance's calibration was 6e-16 * 4^l
    (1e-10 at l=9, 4e-8 at l=13), so the bound keeps a factor of about 50.
    """
    return 3e-14 * 4.0**ell


def angular_momentum(ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L_x, L_y, L_z (hbar = 1) on |l, m>, m = l, l-1, ..., -l."""
    m = np.arange(ell, -ell - 1, -1, dtype=float)
    raising = np.zeros((2 * ell + 1, 2 * ell + 1))
    for i in range(1, 2 * ell + 1):
        raising[i - 1, i] = np.sqrt(ell * (ell + 1) - m[i] * (m[i] + 1))
    lowering = raising.T
    return (raising + lowering) / 2.0, (raising - lowering) / 2.0j, np.diag(m).astype(complex)


def rotor_levels(ell: int, weights) -> np.ndarray:
    """Ascending eigenvalues of sum_i weights[i] * L_i^2 at degree ell."""
    mats = angular_momentum(ell)
    op = sum(w * (m @ m) for w, m in zip(weights, mats))
    return np.linalg.eigvalsh(op)


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def check_multiplet(ell: int, records: list[dict], e, inertia=None) -> None:
    """One degree block of a spectrum.

    ``records`` carry ell, n1, n2, h1, h2, estar2 (and energy when
    ``inertia`` gives the three principal moments).
    """
    where = f"degree {ell}"
    if len(records) != 2 * ell + 1:
        raise CheckFailed(f"{where}: {len(records)} states, expected {2 * ell + 1}")
    tol = spectrum_tol(ell)
    for r in records:
        if int(r["ell"]) != ell:
            raise CheckFailed(f"{where}: record of degree {r['ell']}")
        if int(r["n1"]) + int(r["n2"]) != ell:
            raise CheckFailed(f"{where}: n1 + n2 = {int(r['n1']) + int(r['n2'])}")
        if abs(float(r["h1"]) + float(r["h2"]) - ell * (ell + 1)) > tol:
            raise CheckFailed(f"{where}: h1 + h2 = {float(r['h1']) + float(r['h2'])!r}")
    got = np.sort([float(r["estar2"]) for r in records])
    gap = _gap(got, rotor_levels(ell, e))
    if not gap <= tol:
        raise CheckFailed(f"{where}: 2E* differs from eig(sum e_i L_i^2) by {gap:.3e}")
    if inertia is not None:
        got = np.sort([float(r["energy"]) for r in records])
        weights = [0.5 / i for i in inertia]
        gap = _gap(got, rotor_levels(ell, weights))
        if not gap <= tol * max(weights):
            raise CheckFailed(f"{where}: energy differs from eig(sum L_i^2 / 2I_i) by {gap:.3e}")


def check_spectrum(records: list[dict], lmax: int, e, inertia=None) -> None:
    """Every degree 0..lmax of a spectrum listing."""
    by_degree: dict[int, list[dict]] = {ell: [] for ell in range(lmax + 1)}
    for r in records:
        ell = int(r["ell"])
        if ell not in by_degree:
            raise CheckFailed(f"spectrum to degree {lmax} lists degree {ell}")
        by_degree[ell].append(r)
    for ell, block in by_degree.items():
        check_multiplet(ell, block, e, inertia)


class LadderTable:
    """Reported ladder coefficients assembled into per-degree matrices.

    States are keyed (ell, label, n1); the row and column order inside a
    degree is the sorted key order, which every identity checked here is
    blind to as long as it is used consistently.
    """

    def __init__(self) -> None:
        self.states: dict[int, set] = {}
        self.sources: dict[tuple[str, int], set] = {}
        self.entries: dict[tuple[str, int, int], dict] = {}

    def add(self, operator: str, source: tuple, terms) -> None:
        """One decomposition: source key and (target key, coefficient) pairs."""
        ell = source[0]
        self.states.setdefault(ell, set()).add(source[1:])
        self.sources.setdefault((operator, ell), set()).add(source[1:])
        for target, coefficient in terms:
            t_ell = target[0]
            if operator[0] == "L":
                if t_ell != ell:
                    raise CheckFailed(f"{operator} on {source} reaches degree {t_ell}")
                value = coefficient
            elif t_ell == ell - 1:
                value = coefficient / (2 * ell + 1)
            elif t_ell == ell + 1:
                value = coefficient
            else:
                raise CheckFailed(f"{operator} on {source} reaches degree {t_ell}")
            block = self.entries.setdefault((operator, ell, t_ell), {})
            block[(target[1:], source[1:])] = value

    def matrix(self, operator: str, src: int, dst: int) -> np.ndarray:
        rows = sorted(self.states[dst])
        cols = sorted(self.states[src])
        out = np.zeros((len(rows), len(cols)))
        row_of = {k: i for i, k in enumerate(rows)}
        col_of = {k: j for j, k in enumerate(cols)}
        for (t, s), value in self.entries.get((operator, src, dst), {}).items():
            if t not in row_of:
                raise CheckFailed(f"{operator} reaches unknown degree-{dst} state {t}")
            out[row_of[t], col_of[s]] = value
        return out

    def complete(self, operator: str, ell: int) -> bool:
        """Whether the operator was reported on every state of degree ell."""
        return len(self.sources.get((operator, ell), ())) == 2 * ell + 1

    def check_angular(self, ell: int) -> None:
        """i*M_axis has eigenvalues -l..l and -sum(M^2) = l(l+1)."""
        tol = ladder_tol(ell)
        size = 2 * ell + 1
        casimir = np.zeros((size, size))
        for axis in AXES:
            m = self.matrix("L" + axis, ell, ell)
            w = np.linalg.eigvals(1j * m)
            w = w[np.argsort(w.real)]
            gap = float(np.abs(w - np.arange(-ell, ell + 1)).max())
            if not gap <= tol:
                raise CheckFailed(f"degree {ell}: eigenvalues of i*L{axis} off -l..l by {gap:.3e}")
            casimir -= m @ m
        gap = float(np.abs(casimir - ell * (ell + 1) * np.eye(size)).max())
        if not gap <= tol:
            raise CheckFailed(f"degree {ell}: sum of (i*L)^2 off l(l+1) by {gap:.3e}")

    def check_closure(self, ell: int) -> None:
        """sum_i C_i C_i = 1 on the degree-ell block (ell >= 1)."""
        size = 2 * ell + 1
        total = np.zeros((size, size))
        for axis in AXES:
            op = "P" + axis
            for other in (ell - 1, ell + 1):
                total += self.matrix(op, other, ell) @ self.matrix(op, ell, other)
        gap = float(np.abs(total - np.eye(size)).max())
        if not gap <= ladder_tol(ell + 1):
            raise CheckFailed(f"degree {ell}: sum of C_i C_i off the identity by {gap:.3e}")

    def check_all(self, degrees, expected: int | None = None) -> int:
        """Every identity whose inputs are complete; returns how many ran.

        With ``expected``, fewer identities than that is itself a failure,
        so missing reports cannot pass by skipping the checks.
        """
        ran = 0
        for ell in degrees:
            if all(self.complete("L" + a, ell) for a in AXES):
                self.check_angular(ell)
                ran += 1
            if ell >= 1 and all(
                self.complete("P" + a, k) for a in AXES for k in (ell - 1, ell, ell + 1)
            ):
                self.check_closure(ell)
                ran += 1
        if expected is not None and ran < expected:
            raise CheckFailed(f"only {ran} of {expected} ladder identities had complete tables")
        return ran
