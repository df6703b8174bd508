"""End-to-end checks of the command-line front end via ``main(argv)``."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spheroconal
from spheroconal import cli, ladder, lame_solver
from spheroconal.asymmetry import from_e1
from spheroconal.errors import ProjectionResidual
from spheroconal.harmonics import build_basis


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_json_document(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--e1", "0.75", "--lmax", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["version", "config", "states", "ladders"]
    assert doc["version"] == "1"
    assert doc["config"]["mode"] == "e1"
    assert doc["ladders"] == []
    states = doc["states"]
    assert [s["ell"] for s in states] == [0] + [1] * 3 + [2] * 5
    e1, _, e3 = doc["config"]["e"]
    for s in states:
        # Serialized as the shortest repr that round-trips, so the parsed
        # doubles reproduce the defining relations at machine precision.
        assert s["h1"] + s["h2"] == pytest.approx(s["ell"] * (s["ell"] + 1), abs=1e-12)
        assert s["estar2"] == pytest.approx(e1 * s["h1"] + e3 * s["h2"], abs=1e-12)
        assert "energy" not in s


def test_spectrum_csv_matches_json(capsys):
    code, json_out, _ = run_cli(capsys, "spectrum", "--e1", "0.75", "--lmax", "2")
    assert code == 0
    states = json.loads(json_out)["states"]
    code, csv_out, _ = run_cli(
        capsys, "spectrum", "--e1", "0.75", "--lmax", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(states)
    for row, state in zip(rows, states):
        assert int(row["ell"]) == state["ell"]
        assert row["label"] == state["label"]
        assert (int(row["n1"]), int(row["n2"])) == (state["n1"], state["n2"])
        for field in ("h1", "h2", "estar2"):
            assert float(row[field]) == state[field]


def test_spectrum_round_trips_the_library_doubles(capsys):
    basis = [s for ell in range(6) for s in build_basis(ell, from_e1(0.62))]
    expected = [[s.h1.hex(), s.h2.hex(), s.estar2.hex()] for s in basis]
    code, json_out, _ = run_cli(capsys, "spectrum", "--e1", "0.62", "--lmax", "5")
    assert code == 0
    states = json.loads(json_out)["states"]
    # Integer-valued reals stay floats: the degree-0 eigenvalues are 0.0.
    assert all(isinstance(s[f], float) for s in states for f in ("h1", "h2", "estar2"))
    assert [[s[f].hex() for f in ("h1", "h2", "estar2")] for s in states] == expected
    code, csv_out, _ = run_cli(
        capsys, "spectrum", "--e1", "0.62", "--lmax", "5", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [[float(r[f]).hex() for f in ("h1", "h2", "estar2")] for r in rows] == expected


def test_spectrum_builds_no_eigenpolynomial(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("spectrum built an eigenpolynomial matrix")

    lame_solver._eigenpolynomials.cache_clear()
    monkeypatch.setattr(lame_solver, "build_matrix", refuse)
    code, out, err = run_cli(capsys, "spectrum", "--e1", "0.75", "--lmax", "20")
    assert code == 0, err
    assert len(json.loads(out)["states"]) == 21 * 21


def test_spectrum_moments_adds_energy(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--moments", "1,2,3", "--lmax", "1")
    assert code == 0
    doc = json.loads(out)
    config = doc["config"]
    assert config["mode"] == "moments"
    assert config["moments"] == [1.0, 2.0, 3.0]
    assert config["q"] == pytest.approx(11.0 / 18.0, abs=1e-15)
    assert config["p"] == pytest.approx(math.sqrt(13.0) / 9.0, abs=1e-15)
    energies = sorted(s["energy"] for s in doc["states"] if s["ell"] == 1)
    assert energies == pytest.approx([5.0 / 12.0, 2.0 / 3.0, 3.0 / 4.0], abs=1e-12)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "spectrum.json"
    code, out, _ = run_cli(
        capsys, "spectrum", "--e1", "0.8", "--lmax", "1", "--out", str(path)
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(doc["states"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--e1", "0.3"),
        ("spectrum", "--e1", "1.5"),
        ("spectrum", "--moments", "1,2"),
        ("spectrum", "--moments", "1,1,1"),
        ("spectrum", "--moments", "3,2,1"),
    ],
)
def test_bad_parameters_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_missing_and_conflicting_inputs_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["spectrum"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["spectrum", "--e1", "0.75", "--moments", "1,2,3"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# ladder


def test_ladder_degree1_angular_records(capsys):
    code, out, _ = run_cli(capsys, "ladder", "--e1", "0.75", "--l", "1", "--op", "Lz")
    assert code == 0
    records = json.loads(out)["ladders"]
    by_source = {r["source"]["label"]: r for r in records}
    assert set(by_source) == {"x", "y", "z"}
    x_terms = by_source["x"]["terms"]
    assert len(x_terms) == 1
    assert x_terms[0]["target"]["label"] == "y"
    assert x_terms[0]["coefficient"] == 1.0
    y_terms = by_source["y"]["terms"]
    assert y_terms[0]["target"]["label"] == "x"
    assert y_terms[0]["coefficient"] == -1.0
    assert by_source["z"]["terms"] == []


def test_ladder_verify_reports_residuals(capsys):
    code, out, _ = run_cli(
        capsys,
        "ladder", "--e1", "0.75", "--l", "1", "--op", "Lx", "--op", "Px", "--verify",
    )
    assert code == 0
    records = json.loads(out)["ladders"]
    assert {r["operator"] for r in records} == {"Lx", "Px"}
    for rec in records:
        assert rec["residual"] < 1e-6


def test_ladder_verify_exit_3_when_threshold_exceeded(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_RESIDUAL_LIMIT", -1.0)
    code, _, err = run_cli(
        capsys, "ladder", "--e1", "0.75", "--l", "1", "--op", "Lx", "--verify"
    )
    assert code == 3
    assert "oracle residual" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ladder_verify_nan_residual_exits_3(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "_oracle_residual", lambda *args: math.nan)
    code, out, err = run_cli(
        capsys, "ladder", "--e1", "0.75", "--l", "1", "--op", "Lx", "--verify", "--format", fmt
    )
    assert code == 3
    assert err == "oracle residual nan exceeds 1e-06\n"
    if fmt == "json":
        assert [r["residual"] for r in json.loads(out)["ladders"]] == [None] * 3
    else:
        assert [r["residual"] for r in csv.DictReader(io.StringIO(out))] == [""] * 3


def test_ladder_verify_samples_each_state_once(capsys, monkeypatch):
    """--verify samples each state of degrees l - 1, l and l + 1 at most
    once per run, however many operators and terms reach it."""
    calls = []
    sample = cli.state_field

    def counting(state, chi1, chi2):
        calls.append((state.ell, state.label, state.n1))
        return sample(state, chi1, chi2)

    monkeypatch.setattr(cli, "state_field", counting)
    ell = 3
    code, out, err = run_cli(
        capsys,
        "ladder", "--e1", "0.8", "--l", str(ell),
        *(f"--op={op}" for op in cli._OPERATORS), "--verify",
    )
    assert code == 0, err
    assert len(json.loads(out)["ladders"]) == 6 * (2 * ell + 1)
    assert len(calls) == len(set(calls)) <= 6 * ell + 3


@pytest.mark.parametrize(
    "argv",
    [
        ("--e1", "0.62", "--l", "3", *(f"--op={op}" for op in cli._OPERATORS)),
        ("--e1", "0.75", "--l", "4", "--op", "Lz", "--op", "Px"),
        ("--e1", "0.75", "--l", "5", "--op", "Lz"),
        ("--e1", "0.55", "--l", "6", "--op", "Lx"),
    ],
    ids=["e1=0.62-l=3-all", "e1=0.75-l=4-Lz-Px", "e1=0.75-l=5-Lz", "e1=0.55-l=6-Lx"],
)
def test_ladder_verify_accepts_correct_low_degree_blocks(capsys, argv):
    code, out, err = run_cli(capsys, "ladder", *argv, "--verify")
    assert code == 0, err
    assert max(r["residual"] for r in json.loads(out)["ladders"]) <= 1e-6


@pytest.mark.parametrize(
    "e1, ell",
    [(0.55, 50), (0.95, 50), (0.5001, 10), (0.5001, 16), (0.9999, 10), (0.9999, 16)],
)
def test_ladder_verify_across_the_advertised_range(capsys, e1, ell):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "ladder", "--e1", repr(e1), "--l", str(ell), "--op", "Lx", "--op", "Pz", "--verify"
    )
    elapsed = time.perf_counter() - start
    assert code == 0, err
    records = json.loads(out)["ladders"]
    assert len(records) == 2 * (2 * ell + 1)
    assert max(r["residual"] for r in records) <= 1e-6
    assert elapsed < 30.0, f"degree-{ell} verify took {elapsed:.1f} s"


def test_ladder_round_trips_the_library_coefficients(capsys):
    cfg = from_e1(0.9)
    argv = ("ladder", "--e1", "0.9", "--l", "4", "--op", "Ly", "--op", "Px")
    basis = build_basis(4, cfg)
    decs = [ladder.apply_angular_momentum("y", s, cfg) for s in basis]
    decs += [ladder.apply_linear_momentum("x", s, cfg) for s in basis]
    expected = [t.coefficient.hex() for dec in decs for t in dec.terms]
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0
    records = json.loads(json_out)["ladders"]
    assert [t["coefficient"].hex() for r in records for t in r["terms"]] == expected
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert [float(r["coefficient"]).hex() for r in rows if r["coefficient"]] == expected


def test_ladder_csv_keeps_empty_decompositions(capsys):
    code, out, _ = run_cli(
        capsys,
        "ladder", "--e1", "0.75", "--l", "1", "--op", "Lx", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    blank = [r for r in rows if r["source_label"] == "x"]
    assert len(blank) == 1
    assert blank[0]["target_label"] == "" and blank[0]["coefficient"] == ""
    full = [r for r in rows if r["source_label"] == "y"]
    assert {r["target_label"] for r in full} == {"z"}


def test_numerical_failure_exits_1_naming_the_error(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ProjectionResidual("image leaves the target basis")

    monkeypatch.setattr(cli, "apply_angular_momentum", fail)
    code, out, err = run_cli(capsys, "ladder", "--e1", "0.75", "--l", "1", "--op", "Lz")
    assert code == 1 and out == ""
    assert err.startswith("error: ProjectionResidual: image leaves the target basis")


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_lists_invariants(capsys):
    code, out, err = run_cli(capsys, "verify", "--e1", "0.75", "--lmax", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [r["invariant"] for r in doc["invariants"]]
    assert names == [
        "eigenvalue-sum",
        "multiplet-trace",
        "ode-residual",
        "divisibility",
        "commutators",
        "squared-momentum-closure",
    ]
    assert all(r["passed"] for r in doc["invariants"])


def test_verify_injected_fault_exits_1(capsys, monkeypatch):
    real = cli.build_basis

    def faulty(ell, cfg):
        basis = real(ell, cfg)
        if ell == 0:
            basis[0] = dataclasses.replace(basis[0], h1=basis[0].h1 + 0.5)
        return basis

    monkeypatch.setattr(cli, "build_basis", faulty)
    code, out, err = run_cli(capsys, "verify", "--e1", "0.75", "--lmax", "1")
    assert code == 1
    assert "failed invariants: eigenvalue-sum" in err
    doc = json.loads(out)
    assert doc["passed"] is False
    by_name = {r["invariant"]: r for r in doc["invariants"]}
    assert by_name["eigenvalue-sum"]["passed"] is False
    assert by_name["multiplet-trace"]["passed"] is True


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_fails_a_nan_invariant(capsys, monkeypatch, fmt):
    real = cli.angular_momentum_matrix

    def poisoned(axis, ell, cfg):
        matrix = real(axis, ell, cfg)
        return np.full_like(matrix, np.nan) if (axis, ell) == ("x", 1) else matrix

    monkeypatch.setattr(cli, "angular_momentum_matrix", poisoned)
    code, out, err = run_cli(capsys, "verify", "--e1", "0.75", "--lmax", "2", "--format", fmt)
    assert code == 1
    assert err == "failed invariants: commutators, squared-momentum-closure\n"
    if fmt == "json":
        by_name = {r["invariant"]: r for r in json.loads(out)["invariants"]}
        for name in ("commutators", "squared-momentum-closure"):
            assert by_name[name]["passed"] is False
            assert by_name[name]["worst"] is None
        assert by_name["divisibility"]["passed"] is True
    else:
        by_name = {r["invariant"]: r for r in csv.DictReader(io.StringIO(out))}
        for name in ("commutators", "squared-momentum-closure"):
            assert by_name[name]["passed"] == "False"
            assert by_name[name]["worst"] == ""
        assert by_name["divisibility"]["passed"] == "True"


def test_verify_csv_rows_match_the_json_invariants(capsys):
    argv = ("verify", "--e1", "0.75", "--lmax", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    invariants = json.loads(out)["invariants"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["invariant", "passed", "worst", "detail"]
    assert len(rows) == len(invariants) == 6
    for row, want in zip(rows, invariants):
        assert row["invariant"] == want["invariant"]
        assert row["passed"] == str(want["passed"])
        assert float(row["worst"]) == want["worst"]
        assert row["detail"] == want["detail"]


def test_verify_checks_commutators_above_degree_4(capsys, monkeypatch):
    real = ladder.apply_angular_momentum

    def skewed(axis, state, cfg):
        dec = real(axis, state, cfg)
        if (state.ell, axis) != (7, "x") or not dec.terms:
            return dec
        first = dataclasses.replace(dec.terms[0], coefficient=dec.terms[0].coefficient * 1.000001)
        return dataclasses.replace(dec, terms=(first,) + dec.terms[1:])

    monkeypatch.setattr(ladder, "apply_angular_momentum", skewed)
    code, out, err = run_cli(capsys, "verify", "--e1", "0.75", "--lmax", "7")
    assert code == 1
    by_name = {r["invariant"]: r for r in json.loads(out)["invariants"]}
    assert by_name["divisibility"]["passed"] is True
    assert by_name["commutators"]["passed"] is False
    assert by_name["squared-momentum-closure"]["passed"] is False


def test_verify_reports_a_failed_degree_block(capsys, monkeypatch):
    real = ladder.apply_angular_momentum

    def failing(axis, state, cfg):
        if state.ell == 3:
            raise ProjectionResidual("image leaves the target basis")
        return real(axis, state, cfg)

    monkeypatch.setattr(ladder, "apply_angular_momentum", failing)
    code, out, err = run_cli(capsys, "verify", "--e1", "0.75", "--lmax", "4")
    assert code == 1
    by_name = {r["invariant"]: r for r in json.loads(out)["invariants"]}
    divisibility = by_name["divisibility"]
    assert divisibility["passed"] is False
    assert divisibility["worst"] == 1.0
    assert "4/5 degree blocks" in divisibility["detail"]
    assert "l=3 ProjectionResidual" in divisibility["detail"]
    for name in ("commutators", "squared-momentum-closure"):
        assert by_name[name]["passed"] is False
        assert "1 degrees unchecked" in by_name[name]["detail"]


def test_run_config_takes_exactly_one_asymmetry_input():
    common = dict(lmax=1, operators=(), fmt="json", out=None, verify=False)
    assert cli.RunConfig(e1=0.75, moments=None, **common).mode == "e1"
    assert cli.RunConfig(e1=None, moments=(1.0, 2.0, 3.0), **common).mode == "moments"
    for e1, moments in ((None, None), (0.75, (1.0, 2.0, 3.0))):
        with pytest.raises(ValueError, match="exactly one"):
            cli.RunConfig(e1=e1, moments=moments, **common)


def run_python(*argv):
    """Run the interpreter on the same spheroconal package the tests import."""
    source = str(Path(spheroconal.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (source, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point_smoke():
    proc = run_python(
        "-c",
        "from spheroconal.cli import entry; entry()",
        "spectrum", "--e1", "0.75", "--lmax", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["states"][0]["label"] == "1"


def test_module_entry_points():
    proc = run_python("-m", "spheroconal", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"spheroconal {cli.__version__}"
    proc = run_python("-m", "spheroconal.cli", "spectrum", "--e1", "0.75", "--lmax", "2")
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["states"]) == 9


def test_import_does_not_load_mpmath():
    proc = run_python("-c", "import sys, spheroconal; print('mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_arbitrary_precision_modules():
    """Every CLI process pays its import path: it loads none of mpmath,
    fractions or decimal."""
    proc = run_python(
        "-c",
        "import sys, spheroconal.cli; "
        "print([m for m in ('mpmath', 'fractions', 'decimal') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
