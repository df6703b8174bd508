"""Command-line front end: spectra, ladder tables, and verification runs.

Three subcommands share one asymmetry-input convention (``--e1`` or
``--moments i1,i2,i3``) and one machine-readable output convention
(``--format json|csv``, ``--out PATH``):

* ``spectrum`` tabulates every harmonic up to ``--lmax`` with its
  eigenvalue pair and reduced energy (absolute energy too when moments
  are given).
* ``ladder`` decomposes one operator over a whole degree block and,
  under ``--verify``, scores each decomposition against the spectral
  oracle.
* ``verify`` runs the structural invariant suite and reports pass/fail
  per invariant.

Exit codes: 0 success, 1 failed invariant or numerical failure (the
message names the exception class), 2 bad parameters, 3 oracle residual
above threshold. A NaN never passes a gate: a non-finite oracle residual
exits 3 and a non-finite worst value fails its invariant.

Reals are printed as the shortest ``repr`` that round-trips exactly, so a
JSON or CSV file parses back to the same doubles. A non-finite ladder
residual or invariant ``worst`` is written as JSON ``null`` and as an
empty CSV cell; any other non-finite real is refused with ``ValueError``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .asymmetry import AsymmetryConfig, from_e1, from_moments
from .errors import SpheroconalError
from .harmonics import build_basis, total_energy
from .ladder import (
    apply_angular_momentum,
    apply_linear_momentum,
    angular_momentum_matrix,
    LadderDecomposition,
)
from .lame_solver import apply_operator
from .oracle import fd_operator, make_grid, state_field
from .polyalg import divide_by_scale

# divide_by_scale is not called here; it stays bound in this namespace
# because the benchmark tracer (bench/spans.py) wraps it here.

__all__ = ["main", "entry"]

_OPERATORS = ("Lx", "Ly", "Lz", "Px", "Py", "Pz")
_RESIDUAL_LIMIT = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters shared by the subcommands."""

    e1: float | None
    moments: tuple[float, float, float] | None
    lmax: int
    operators: tuple[str, ...]
    fmt: str
    out: str | None
    verify: bool

    def __post_init__(self) -> None:
        if self.lmax < 0:
            raise ValueError(f"lmax must be nonnegative, got {self.lmax}")
        if (self.e1 is None) == (self.moments is None):
            raise ValueError("exactly one of e1 and moments must be set")

    @property
    def mode(self) -> str:
        return "e1" if self.moments is None else "moments"

    def asymmetry(self) -> AsymmetryConfig:
        if self.moments is not None:
            return from_moments(*self.moments)
        return from_e1(self.e1)


# ---------------------------------------------------------------------------
# Serialization


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False)


def _emit_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row.values()):
        raise ValueError("cannot serialize non-finite values")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_block(run: RunConfig, cfg: AsymmetryConfig) -> dict:
    block = {
        "mode": run.mode,
        "e": list(cfg.e),
        "k1sq": cfg.k1sq,
        "k2sq": cfg.k2sq,
    }
    if run.moments is not None:
        block["moments"] = list(run.moments)
        block["q"] = cfg.q
        block["p"] = cfg.p
    return block


def _document(run: RunConfig, cfg: AsymmetryConfig, states, ladders, **extra) -> dict:
    doc = {
        "version": "1",
        "config": _config_block(run, cfg),
        "states": states,
        "ladders": ladders,
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# spectrum


def _state_record(state, cfg: AsymmetryConfig, with_energy: bool) -> dict:
    rec = {
        "ell": state.ell,
        "species_a": state.species_a.tag(1),
        "species_b": state.species_b.tag(2),
        "label": state.label,
        "n1": state.n1,
        "n2": state.n2,
        "h1": state.h1,
        "h2": state.h2,
        "estar2": state.estar2,
    }
    if with_energy:
        rec["energy"] = total_energy(state, cfg)
    return rec


def cmd_spectrum(run: RunConfig) -> int:
    cfg = run.asymmetry()
    with_energy = run.moments is not None
    records = [
        _state_record(s, cfg, with_energy)
        for ell in range(run.lmax + 1)
        for s in build_basis(ell, cfg)
    ]
    if run.fmt == "csv":
        _write(_emit_csv(records), run.out)
    else:
        _write(_emit_json(_document(run, cfg, records, [])), run.out)
    return 0


# ---------------------------------------------------------------------------
# ladder


def _decompose(op: str, state, cfg: AsymmetryConfig) -> LadderDecomposition:
    if op[0] == "L":
        return apply_angular_momentum(op[1], state, cfg)
    return apply_linear_momentum(op[1], state, cfg)


class _Fields(dict):
    """Fields on one grid of the states of degrees ell - 1, ell and ell + 1,
    keyed by (ell, label, n1); each state is sampled on first use."""

    def __init__(self, cfg: AsymmetryConfig, ell: int, grid) -> None:
        super().__init__()
        self.grid = grid
        self.states = {
            (s.ell, s.label, s.n1): s
            for degree in range(max(ell - 1, 0), ell + 2)
            for s in build_basis(degree, cfg)
        }

    def __missing__(self, key):
        field = self[key] = state_field(self.states[key], *self.grid)
        return field


def _oracle_residual(op: str, state, dec: LadderDecomposition, cfg, grid, fields=None) -> float:
    """Relative RMS gap between the spectral action and the decomposition.

    ``fields`` shares the sampled states of ``grid`` between calls.
    """
    if fields is None:
        fields = _Fields(cfg, state.ell, grid)
    source = fields[(state.ell, state.label, state.n1)]
    fd = fd_operator(op, source, cfg)
    predicted = np.zeros_like(fd.values)
    for term in dec.terms:
        values = fields[(term.target.ell, term.target.label, term.target.n1)].values
        if op[0] == "P":
            ell = state.ell
            weight = (
                (ell + 1) / (2 * ell + 1)
                if term.target.ell == ell - 1
                else -float(ell)
            )
            predicted += weight * term.coefficient * values
        else:
            predicted += term.coefficient * values

    def rms(a) -> float:
        return float(np.sqrt(np.mean(np.square(a))))

    denom = max(rms(fd.values), rms(predicted), rms(source.values), 1e-30)
    return rms(fd.values - predicted) / denom


def _peak(values) -> float:
    """Largest of ``values``, 0.0 for none; a NaN among them is kept."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def cmd_ladder(run: RunConfig) -> int:
    cfg = run.asymmetry()
    ell = run.lmax
    basis = build_basis(ell, cfg)
    grid = make_grid(cfg, ell) if run.verify else None
    fields = _Fields(cfg, ell, grid) if run.verify else None
    records = []
    residuals = []
    for op in run.operators:
        for state in basis:
            dec = _decompose(op, state, cfg)
            rec = {
                "operator": op,
                "source": asdict(dec.source),
                "convention": dec.convention,
                "terms": [
                    {"target": asdict(t.target), "coefficient": t.coefficient}
                    for t in dec.terms
                ],
            }
            if run.verify:
                residual = _oracle_residual(op, state, dec, cfg, grid, fields)
                residuals.append(residual)
                rec["residual"] = residual if math.isfinite(residual) else None
            records.append(rec)
    if run.fmt == "csv":
        rows = []
        for rec in records:
            # A record whose action vanishes still gets one row, with the
            # target columns blank, so the record sets in the two formats
            # stay identical.
            terms = rec["terms"] or [{"target": {}, "coefficient": ""}]
            for t in terms:
                row = {
                    "operator": rec["operator"],
                    "source_ell": rec["source"]["ell"],
                    "source_label": rec["source"]["label"],
                    "source_n1": rec["source"]["n1"],
                    "source_n2": rec["source"]["n2"],
                    "target_ell": t["target"].get("ell", ""),
                    "target_label": t["target"].get("label", ""),
                    "target_n1": t["target"].get("n1", ""),
                    "target_n2": t["target"].get("n2", ""),
                    "coefficient": t["coefficient"],
                }
                if run.verify:
                    row["residual"] = rec["residual"]
                rows.append(row)
        _write(_emit_csv(rows), run.out)
    else:
        _write(_emit_json(_document(run, cfg, [], records)), run.out)
    worst = _peak(residuals)
    if not worst <= _RESIDUAL_LIMIT:
        print(
            f"oracle residual {worst:.3e} exceeds {_RESIDUAL_LIMIT:.0e}",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify


def _invariant(name: str, values, limit: float, detail: str, checked: bool = True) -> dict:
    """One report entry on the largest of ``values``. A NaN among them fails
    the invariant and is written as null."""
    worst = _peak(values)
    finite = math.isfinite(worst)
    return {
        "invariant": name,
        "passed": finite and worst <= limit and checked,
        "worst": worst if finite else None,
        "detail": detail,
    }


def _invariant_suite(cfg: AsymmetryConfig, lmax: int) -> list[dict]:
    """Run the structural checks and return one report entry per invariant."""
    bases = {ell: build_basis(ell, cfg) for ell in range(lmax + 1)}
    tol = 1e-9 * max(1.0, lmax * (lmax + 1))

    states = [(ell, s) for ell, basis in bases.items() for s in basis]
    gaps = [abs(s.h1 + s.h2 - ell * (ell + 1)) for ell, s in states]
    i = int(np.argmax(gaps))  # the first NaN, else the first maximum
    ell, s = states[i]
    culprit = f"h1 + h2 - l(l+1) largest at l={ell} {s.label} n1={s.n1}" if gaps[i] else ""
    traces = [abs(sum(s.estar2 for s in basis)) for basis in bases.values()]

    def ode_residual(lame, ell: int) -> float:
        image = apply_operator(lame.poly, ell)
        ca = np.zeros(max(len(image.coeffs), len(lame.poly.coeffs)))
        ca[: len(image.coeffs)] = image.coeffs
        cb = np.zeros_like(ca)
        cb[: len(lame.poly.coeffs)] = lame.poly.coeffs
        scale = max(np.abs(cb).max(), 1.0) * max(1.0, abs(lame.h))
        return np.abs(ca - lame.h * cb).max() / scale

    ode = [ode_residual(lame, ell) for ell, s in states for lame in (s.lame1, s.lame2)]

    # A degree whose decompositions fail has no matrices.
    matrices = {}
    failed = []
    for ell in bases:
        try:
            matrices[ell] = {ax: angular_momentum_matrix(ax, ell, cfg) for ax in "xyz"}
        except SpheroconalError as exc:
            failed.append(f"l={ell} {type(exc).__name__}")

    # Residuals relative to (max |L|)^2, the scale of the products.
    comms = []
    closures = []
    for ell, mats in matrices.items():
        scale = max(float(np.abs(m).max()) for m in mats.values()) ** 2 or 1.0
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            comms.append(np.abs(comm - 1j * mats[c]).max() / scale)
        casimir = sum(mats[ax] @ mats[ax] for ax in "xyz")
        eye = ell * (ell + 1) * np.eye(2 * ell + 1)
        closures.append(np.abs(casimir - eye).max() / scale)
    note = f"; {len(failed)} degrees unchecked (failed decompositions)" if failed else ""
    return [
        _invariant("eigenvalue-sum", gaps, tol, culprit),
        _invariant(
            "multiplet-trace", traces, tol, "sum of reduced energies over each degree block"
        ),
        _invariant("ode-residual", ode, 1e-10, "operator image minus eigenvalue times polynomial"),
        _invariant(
            "divisibility",
            [len(failed)],
            0.0,
            f"{len(matrices)}/{len(bases)} degree blocks divide by the metric factor"
            + "".join(f"; {f}" for f in failed),
        ),
        _invariant(
            "commutators",
            comms,
            1e-10,
            "[Lx, Ly] - i Lz and cyclic, in matrix form, over (max |L|)^2" + note,
            checked=not failed,
        ),
        _invariant(
            "squared-momentum-closure",
            closures,
            1e-10,
            "Lx^2 + Ly^2 + Lz^2 minus l(l+1) on each degree block, over (max |L|)^2" + note,
            checked=not failed,
        ),
    ]


def cmd_verify(run: RunConfig) -> int:
    cfg = run.asymmetry()
    results = _invariant_suite(cfg, run.lmax)
    passed = all(r["passed"] for r in results)
    if run.fmt == "csv":
        rows = [{**r, "worst": "" if r["worst"] is None else r["worst"]} for r in results]
        _write(_emit_csv(rows), run.out)
    else:
        _write(_emit_json(_document(run, cfg, [], [], invariants=results, passed=passed)), run.out)
    if not passed:
        names = ", ".join(r["invariant"] for r in results if not r["passed"])
        print(f"failed invariants: {names}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheroconal",
        description="Spheroconal harmonics, asymmetric-rotor spectra, and ladder tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--e1", type=float, help="largest reduced asymmetry value, in (1/2, 1)")
        group.add_argument(
            "--moments",
            type=str,
            metavar="I1,I2,I3",
            help="principal moments of inertia, comma separated, 0 < I1 < I2 < I3",
        )
        p.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p_spec = sub.add_parser("spectrum", help="tabulate harmonics and energies up to lmax")
    add_input(p_spec)
    p_spec.add_argument("--lmax", type=int, default=4, help="largest polynomial degree (default 4)")

    p_lad = sub.add_parser("ladder", help="decompose operators over one degree block")
    add_input(p_lad)
    p_lad.add_argument("--l", type=int, required=True, dest="ell", help="degree of the source block")
    p_lad.add_argument(
        "--op",
        action="append",
        choices=_OPERATORS,
        required=True,
        help="operator to decompose (repeatable)",
    )
    p_lad.add_argument(
        "--verify",
        action="store_true",
        help="score every decomposition against the spectral oracle",
    )

    p_ver = sub.add_parser("verify", help="run the structural invariant suite")
    add_input(p_ver)
    p_ver.add_argument("--lmax", type=int, default=6, help="largest degree checked (default 6)")
    return parser


def _parse_moments(text: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated moments, got {text!r}")
    return tuple(float(p) for p in parts)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        moments = _parse_moments(args.moments) if args.moments is not None else None
        run = RunConfig(
            e1=args.e1,
            moments=moments,
            lmax=args.ell if args.command == "ladder" else args.lmax,
            operators=tuple(dict.fromkeys(args.op)) if args.command == "ladder" else (),
            fmt=args.fmt,
            out=args.out,
            verify=getattr(args, "verify", False),
        )
        run.asymmetry()
    except (SpheroconalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "spectrum":
            return cmd_spectrum(run)
        if args.command == "ladder":
            return cmd_ladder(run)
        return cmd_verify(run)
    except SpheroconalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
