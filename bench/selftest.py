"""Show that each output check of the benchmark rejects a corrupted value.

    python3 bench/selftest.py

For every kind of output the workloads check, run the program once, check
the untouched output (it must pass), change one value in it, and check
again (it must be rejected). Exits 1 if any check accepts a corrupted
output or rejects a good one.
"""

import dataclasses
import json
import random
import sys
from types import SimpleNamespace

import reference as ref
import run as bench

FAILURES = []


def expect(name: str, check, good, bad) -> None:
    try:
        check(good)
    except ref.CheckFailed as exc:
        FAILURES.append(f"{name}: untouched output rejected: {exc}")
        return
    try:
        check(bad)
    except ref.CheckFailed as exc:
        print(f"ok   {name}: rejected ({exc})")
        return
    FAILURES.append(f"{name}: corrupted output accepted")


def bump(state, field: str, delta: float):
    return dataclasses.replace(state, **{field: getattr(state, field) + delta})


def spectra() -> None:
    high = bench.SpectrumHigh(0)
    high.setup()
    req = high._request(((44, 0.8),))
    [block] = req.run()
    expect("multiplet 2E*", req.check, [block], [[bump(block[0], "estar2", 1e-6)] + block[1:]])
    expect("multiplet h-sum", req.check, [block], [block[:-1] + [bump(block[-1], "h1", 1e-6)]])
    expect("multiplet size", req.check, [block], [block[1:]])

    sweep = bench.SpectrumSweep(0)
    sweep.asymmetry, sweep.harmonics = high.asymmetry, high.harmonics
    sweep.LMAX = 6
    req = sweep._request(0.7, bench.moments_for(random.Random(0), 0.7))
    blocks = req.run()
    bad = [list(b) for b in blocks]
    state, energy = bad[5][2]
    bad[5][2] = (state, energy * (1 + 1e-9))
    expect("energy", req.check, blocks, bad)


def ladders() -> None:
    asym, harm, lad = bench.import_library()
    cfg = asym.from_e1(0.8)
    outcomes = []
    for ell in range(6):
        for state in harm.build_basis(ell, cfg):
            for op in bench.OPERATORS:
                apply = lad.apply_angular_momentum if op[0] == "L" else lad.apply_linear_momentum
                outcomes.append(apply(op[1], state, cfg))

    def check(outs):
        table = ref.LadderTable()
        for out in outs:
            table.add(out.operator, (out.source.ell, out.source.label, out.source.n1),
                      [((t.target.ell, t.target.label, t.target.n1), t.coefficient) for t in out.terms])
        table.check_all(range(1, 5), expected=8)

    expect("ladder report missing", check, outcomes, outcomes[:-1])
    for kind, op in (("angular", "Lz"), ("closure", "Px")):
        victim = next(i for i, r in enumerate(outcomes) if r.operator == op and r.source.ell == 3 and r.terms)
        dec = outcomes[victim]
        term = dataclasses.replace(dec.terms[0], coefficient=dec.terms[0].coefficient * (1 + 1e-6))
        bad = list(outcomes)
        bad[victim] = dataclasses.replace(dec, terms=(term,) + dec.terms[1:])
        expect(f"ladder {kind} ({op})", check, outcomes, bad)


def cli() -> None:
    work = bench.CliCold(0)
    work.setup()

    def rerun(req):
        proc = req.run()
        return proc, lambda text: SimpleNamespace(returncode=0, stdout=text.encode(), stderr=b"")

    req = work._spectrum_json(0.8)
    proc, fake = rerun(req)
    doc = json.loads(proc.stdout)
    doc["states"][7]["estar2"] += 1e-6
    expect("cli spectrum JSON", req.check, proc, fake(json.dumps(doc)))

    path = bench.OUT / "selftest.csv"
    req = work._spectrum_csv((1.0, 2.0, 3.0), path)
    proc = req.run()
    text = path.read_text(encoding="utf-8")
    rows = text.splitlines()
    header = rows[0].split(",")
    cells = rows[5].split(",")
    col = header.index("energy")
    cells[col] = repr(float(cells[col]) * (1 + 1e-9))

    def check_csv(content):
        path.write_text(content, encoding="utf-8")
        req.check(proc)

    expect("cli spectrum CSV", check_csv, text, "\n".join(rows[:5] + [",".join(cells)] + rows[6:]) + "\n")

    req = work._ladder(0.8, 2, ref.LadderTable(), verify=True)
    proc, fake = rerun(req)
    doc = json.loads(proc.stdout)
    doc["ladders"][3]["residual"] = 2e-6
    expect("cli ladder --verify residual", req.check, proc, fake(json.dumps(doc)))

    req = work._suite(0.8, 6)
    proc, fake = rerun(req)
    doc = json.loads(proc.stdout)
    doc["invariants"][2]["passed"] = False
    expect("cli verify", req.check, proc, fake(json.dumps(doc)))


def main() -> int:
    spectra()
    ladders()
    cli()
    for line in FAILURES:
        print(f"FAIL {line}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
