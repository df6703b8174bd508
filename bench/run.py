"""Benchmark of the spheroconal package, end to end and layer by layer.

    python3 bench/run.py --workload spectrum-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (nothing needs installing) and the run fails if it is missing.
Workloads are described in bench/README.md. A run sets up, then repeats
whole rounds of requests until the rounds have taken ``--seconds``; every
output is checked against bench/reference.py after its round, outside the
timed spans. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os

# One BLAS thread, set before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference as ref  # noqa: E402
from spans import LAYERS, Tracer, layer_totals  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60
SETUP_SAMPLES = 3
OPERATORS = ("Lx", "Ly", "Lz", "Px", "Py", "Pz")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no src/)."""


class ChildFailed(RuntimeError):
    """A CLI request exited with a nonzero code."""


def import_library():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "spheroconal" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import spheroconal
    from spheroconal import asymmetry, harmonics, ladder

    if Path(spheroconal.__file__).resolve().parent != (SRC / "spheroconal").resolve():
        raise SetupError(f"spheroconal imported from {spheroconal.__file__}, not {SRC}")
    return asymmetry, harmonics, ladder


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw inside each of ``count`` equal strata of (lo, hi)."""
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


def moments_for(rng: random.Random, e1: float) -> tuple[float, float, float]:
    """Ascending principal moments whose asymmetry triple has this e1."""
    e = ref.e_from_e1(e1)
    q = rng.uniform(0.5, 2.0)
    p = q * rng.uniform(0.2, 0.6)
    return tuple(1.0 / (q + p * ei) for ei in e)


def state_record(state, energy=None) -> dict:
    rec = {
        "ell": state.ell,
        "n1": state.n1,
        "n2": state.n2,
        "h1": state.h1,
        "h2": state.h2,
        "estar2": state.estar2,
    }
    if energy is not None:
        rec["energy"] = energy
    return rec


class Request:
    """One timed operation and the check of what it returned."""

    __slots__ = ("run", "check", "expect_failure")

    def __init__(self, run, check, expect_failure: bool = False) -> None:
        self.run = run
        self.check = check
        self.expect_failure = expect_failure


# ---------------------------------------------------------------------------
# In-process workloads


class InProcess:
    """A workload that calls the library in this process."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = Tracer()

    def tracing(self, on: bool) -> None:
        """Wrap the layer boundaries for the next round, or unwrap them."""
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def collected(self) -> tuple[list, float, float]:
        """Spans of the traced rounds, CLI import seconds, CLI bytes out."""
        return self.tracer.spans, 0.0, 0.0


class SpectrumSweep(InProcess):
    """Full spectra, degrees 0..LMAX, each at a fresh asymmetry.

    Each round draws one e1 in each of STRATA equal strata of (0.55, 0.95),
    so every round covers the whole range evenly; half the requests come in
    as moments of inertia, alternating by stratum and round.
    """

    LMAX = 20
    STRATA = 8
    WARM_E1 = math.sqrt(3.0) / 2.0

    def setup(self) -> None:
        self.asymmetry, self.harmonics, _ = import_library()
        # The exact matrix entries are cached per (degree, species) and do
        # not depend on the asymmetry: one spectrum fills them for the run.
        cfg = self.asymmetry.from_e1(self.WARM_E1)
        for ell in range(self.LMAX + 1):
            self.harmonics.build_basis(ell, cfg)

    def round(self, index: int):
        rng = random.Random(f"spectrum-sweep:{self.seed}:{index}")
        out = []
        for k, e1 in enumerate(stratified(rng, 0.55, 0.95, self.STRATA)):
            moments = moments_for(rng, e1) if (k + index) % 2 else None
            out.append(self._request(e1, moments))
        return out, None

    def _request(self, e1, moments) -> Request:
        asym, harm, lmax = self.asymmetry, self.harmonics, self.LMAX

        def run():
            cfg = asym.from_moments(*moments) if moments else asym.from_e1(e1)
            blocks = [harm.build_basis(ell, cfg) for ell in range(lmax + 1)]
            if moments:
                return [[(s, harm.total_energy(s, cfg)) for s in b] for b in blocks]
            return [[(s, None) for s in b] for b in blocks]

        def check(blocks):
            e = ref.e_from_moments(moments) if moments else ref.e_from_e1(e1)
            for ell, block in enumerate(blocks):
                ref.check_multiplet(ell, [state_record(s, en) for s, en in block], e, moments)

        return Request(run, check)


class SpectrumHigh(InProcess):
    """Single multiplets at degrees 40..48 on both solver paths.

    The solver refines characteristic roots by Aberth iteration and falls
    back to mpmath.polyroots when two float seeds of one species nearly
    coincide. Near that switch the path depends on the last bits of the
    input: at l = 40, e1 = 0.556 + k * 1e-7 falls back once for some k and
    twice for others, which doubles the work. So the fallback multiplets
    draw their asymmetry from the offsets FALLBACK_K, at which one fallback
    was measured, and the Aberth multiplets sit at centres where a seeded
    offset below 1e-6 never changed the path. Each request asks for one
    multiplet of each path, so requests cost alike and their median is not
    an order statistic of a two-humped mix. Every multiplet is at a fresh
    asymmetry, so it misses the per-ksq caches.
    """

    ABERTH = ((44, 0.80), (48, 0.87))
    FALLBACK = (40, 0.556)
    FALLBACK_K = (-17, -16, -15, -14, -11, -9, -8, -5, -4, -3, -2, 0, 1,
                  2, 3, 4, 6, 9, 10, 11, 12, 13, 16, 17, 18)
    # Aberth-path inputs that fill the per-(degree, species) tables.
    WARM = ((44, 0.80), (48, 0.87), (40, 0.6))

    def setup(self) -> None:
        self.asymmetry, self.harmonics, _ = import_library()
        for ell, e1 in self.WARM:
            self.harmonics.build_basis(ell, self.asymmetry.from_e1(e1))
        self.fallback_k = list(self.FALLBACK_K)
        random.Random(f"spectrum-high:{self.seed}").shuffle(self.fallback_k)

    def round(self, index: int):
        rng = random.Random(f"spectrum-high:{self.seed}:{index}")
        ell_f, centre = self.FALLBACK
        out = []
        for j, (ell_a, e1_a) in enumerate(self.ABERTH):
            # Past the end of the list (runs far longer than designed) an
            # offset repeats and its multiplet is served from the cache.
            k = self.fallback_k[(index * len(self.ABERTH) + j) % len(self.fallback_k)]
            out.append(self._request(((ell_f, centre + 1e-7 * k), (ell_a, e1_a + rng.uniform(-1e-6, 1e-6)))))
        return out, None

    def _request(self, points) -> Request:
        asym, harm = self.asymmetry, self.harmonics

        def run():
            return [harm.build_basis(ell, asym.from_e1(e1)) for ell, e1 in points]

        def check(blocks):
            for (ell, e1), block in zip(points, blocks):
                ref.check_multiplet(ell, [state_record(s) for s in block], ref.e_from_e1(e1))

        return Request(run, check)


class LadderTable(InProcess):
    """Every ladder operator on every state of degrees 1..16.

    Degrees 1..SEEDED_TOP run at SEEDED seeded asymmetries drawn from
    (0.6, 0.95), where no decomposition fails. The top degrees run at the
    fixed asymmetries FIXED, where some decompositions fail with
    ProjectionResidual every time: the failures are counted, and do not
    depend on the seed.
    """

    SEEDED = 2
    SEEDED_TOP = 13
    FIXED = (0.55, 0.75)
    FIXED_DEGREES = (14, 15, 16)

    def setup(self) -> None:
        self.asymmetry, harm, self.ladder = import_library()
        rng = random.Random(f"ladder-table:{self.seed}")
        plan = [(e1, range(1, self.SEEDED_TOP + 1)) for e1 in stratified(rng, 0.6, 0.95, self.SEEDED)]
        plan += [(e1, self.FIXED_DEGREES) for e1 in self.FIXED]
        self.blocks = []
        for e1, degrees in plan:
            cfg = self.asymmetry.from_e1(e1)
            bases = {ell: harm.build_basis(ell, cfg) for ell in range(degrees[0] - 1, degrees[-1] + 2)}
            self.blocks.append((e1, cfg, [(ell, bases[ell]) for ell in degrees]))

    def round(self, index: int):
        requests, tables = [], []
        for e1, cfg, degrees in self.blocks:
            table = ref.LadderTable()
            fixed = e1 in self.FIXED
            # Seeded blocks: the angular identities at every degree and the
            # closure at every degree with both neighbours in the block.
            expected = None if fixed else 2 * len(degrees) - 2
            tables.append((table, [ell for ell, _ in degrees], expected))
            for ell, basis in degrees:
                for state in basis:
                    for op in OPERATORS:
                        requests.append(self._request(op, state, cfg, table, fixed))

        def finish():
            for table, degrees, expected in tables:
                table.check_all(degrees, expected)

        return requests, finish

    def _request(self, op, state, cfg, table, fixed) -> Request:
        lad, axis = self.ladder, op[1]
        name = "apply_angular_momentum" if op[0] == "L" else "apply_linear_momentum"
        source = (state.ell, state.label, state.n1)

        def run():
            # Looked up per call, so a traced round sees the wrapper.
            return getattr(lad, name)(axis, state, cfg)

        def check(dec):
            if dec.operator != op or (dec.source.ell, dec.source.label, dec.source.n1) != source:
                raise ref.CheckFailed(f"{op} on {source} reported as {dec.operator} on {dec.source}")
            table.add(op, source, [((t.target.ell, t.target.label, t.target.n1), t.coefficient) for t in dec.terms])

        return Request(run, check, expect_failure=fixed)


# ---------------------------------------------------------------------------
# Cold CLI processes


class CliCold:
    """Fresh processes calling spheroconal.cli:entry, one per request.

    A round is a fixed mix: two spectra (JSON on stdout; CSV from moments
    through --out), ladder tables of all six operators at three adjacent
    degrees up to 13, oracle-verified ladder tables at degrees 1..3, and
    the invariant suite at two depths. Asymmetries are drawn fresh for
    every round, one per request group, from strata of (0.6, 0.95), except
    the oracle-verified group (see ``round``).
    """

    SPECTRUM_LMAX = 16
    LADDER_DEGREES = (11, 12, 13)
    VERIFY_DEGREES = (1, 2, 3)
    SUITE_LMAX = (6, 12)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.trace_dir: Path | None = None
        self.child_traces: list[dict] = []

    def tracing(self, on: bool) -> None:
        """Run the children of the next round under the tracer bootstrap."""
        self.trace_dir = OUT if on else None

    def collected(self) -> tuple[list, float, float]:
        spans, import_s, bytes_out = [], 0.0, 0.0
        for request, child in enumerate(self.child_traces):
            offset = len(spans)
            for span in child["spans"]:
                span[4] = span[4] + offset if span[4] >= 0 else -1
                span[5] = request
                spans.append(span)
            import_s += child["import_s"]
            bytes_out += child["bytes_out"]
        return spans, import_s, bytes_out

    def setup(self) -> None:
        if not (SRC / "spheroconal" / "cli.py").is_file():
            raise SetupError(f"no package source under {SRC}")
        OUT.mkdir(exist_ok=True)

    def setup_probe(self) -> None:
        """The CLI's fixed start cost: a cold process printing its version."""
        proc = self._spawn(["--version"], None)
        if proc.returncode != 0:
            raise SetupError(proc.stderr.decode(errors="replace").strip())

    def _spawn(self, args: list[str], trace_path):
        env = dict(os.environ)
        env.pop("BENCH_TRACE_OUT", None)
        if trace_path is not None:
            env["BENCH_TRACE_OUT"] = str(trace_path)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"), *args],
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc

    def round(self, index: int):
        rng = random.Random(f"cli-cold:{self.seed}:{index}")
        draws = stratified(rng, 0.6, 0.95, 4)
        rng.shuffle(draws)
        e_spec, e_mom, e_lad, e_suite = draws
        # The oracle's default grid certifies degree 3 only for e1 above
        # about 0.745 (residual 2e-6 at e1 = 0.62, limit 1e-6).
        e_ver = rng.uniform(0.77, 0.92)
        csv_path = OUT / f"spectrum-{self.seed}-{index}.csv"
        requests = [
            self._spectrum_json(e_spec),
            self._spectrum_csv(moments_for(rng, e_mom), csv_path),
        ]
        ladders, verified = ref.LadderTable(), ref.LadderTable()
        requests += [self._ladder(e_lad, ell, ladders, verify=False) for ell in self.LADDER_DEGREES]
        requests += [self._ladder(e_ver, ell, verified, verify=True) for ell in self.VERIFY_DEGREES]
        requests += [self._suite(e_suite, lmax) for lmax in self.SUITE_LMAX]

        def finish():
            # Three angular identities and the closure at the middle degree.
            ladders.check_all(self.LADDER_DEGREES, expected=4)
            verified.check_all(self.VERIFY_DEGREES, expected=4)

        return requests, finish

    def _request(self, args, check, out_path=None) -> Request:
        def run():
            trace_path = None
            if self.trace_dir is not None:
                trace_path = self.trace_dir / f"child-{len(self.child_traces)}.json"
            proc = self._spawn(args, trace_path)
            if proc.returncode != 0:
                raise ChildFailed(
                    f"`{' '.join(args)}` exited {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace').strip()[-300:]}"
                )
            if trace_path is not None:
                self.child_traces.append(self._load_trace(trace_path, proc, out_path))
            return proc

        return Request(run, check)

    @staticmethod
    def _load_trace(path: Path, proc, out_path) -> dict:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        path.unlink()
        data["bytes_out"] = len(proc.stdout) + (out_path.stat().st_size if out_path else 0)
        return data

    def _spectrum_json(self, e1) -> Request:
        lmax = self.SPECTRUM_LMAX

        def check(proc):
            doc = json.loads(proc.stdout)
            ref.check_spectrum(doc["states"], lmax, ref.e_from_e1(e1))

        return self._request(["spectrum", "--e1", repr(e1), "--lmax", str(lmax)], check)

    def _spectrum_csv(self, moments, path: Path) -> Request:
        lmax = self.SPECTRUM_LMAX
        args = ["spectrum", "--moments", ",".join(repr(m) for m in moments), "--lmax", str(lmax)]
        args += ["--format", "csv", "--out", str(path.relative_to(ROOT))]

        def check(proc):
            rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
            path.unlink()
            ref.check_spectrum(rows, lmax, ref.e_from_moments(moments), moments)

        return self._request(args, check, out_path=path)

    def _ladder(self, e1, ell, table: ref.LadderTable, verify: bool) -> Request:
        args = ["ladder", "--e1", repr(e1), "--l", str(ell)]
        for op in OPERATORS:
            args += ["--op", op]
        if verify:
            args.append("--verify")

        def check(proc):
            doc = json.loads(proc.stdout)
            for rec in doc["ladders"]:
                src = rec["source"]
                if verify and not rec["residual"] <= 1e-6:
                    raise ref.CheckFailed(f"oracle residual {rec['residual']:.3e} on {src}")
                table.add(
                    rec["operator"],
                    (src["ell"], src["label"], src["n1"]),
                    [((t["target"]["ell"], t["target"]["label"], t["target"]["n1"]), t["coefficient"])
                     for t in rec["terms"]],
                )
            if len(doc["ladders"]) != len(OPERATORS) * (2 * ell + 1):
                raise ref.CheckFailed(f"ladder at degree {ell} lists {len(doc['ladders'])} records")

        return self._request(args, check)

    def _suite(self, e1, lmax) -> Request:
        def check(proc):
            doc = json.loads(proc.stdout)
            failed = [r["invariant"] for r in doc["invariants"] if not r["passed"]]
            if doc["passed"] is not True or failed:
                raise ref.CheckFailed(f"verify --lmax {lmax} failed {failed}")

        return self._request(["verify", "--e1", repr(e1), "--lmax", str(lmax)], check)


WORKLOADS = {
    "spectrum-sweep": SpectrumSweep,
    "spectrum-high": SpectrumHigh,
    "ladder-table": LadderTable,
    "cli-cold": CliCold,
}


# ---------------------------------------------------------------------------
# Running a workload


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_samples(args, workload) -> list[float]:
    """Set-up times of this process and of fresh probe processes.

    In-process workloads: this process's own time from start to ready, plus
    the same set-up in SETUP_SAMPLES - 1 fresh processes. The CLI workload:
    SETUP_SAMPLES cold ``--version`` processes.
    """
    if isinstance(workload, CliCold):
        samples = []
        for _ in range(SETUP_SAMPLES):
            t = time.perf_counter()
            workload.setup_probe()
            samples.append(time.perf_counter() - t)
        return samples
    samples = [time.perf_counter() - START]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=str(ROOT), capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SetupError(proc.stderr.decode(errors="replace").strip())
        samples.append(float(proc.stdout.decode().split()[-1]))
    return samples


def run_round(requests: list[Request], tracer: Tracer | None = None) -> tuple[float, list[float], list]:
    """Run one round back to back; returns wall time, op times, outcomes.

    With a tracer, each request's spans get their own request number.
    """
    durations, outcomes = [], []
    clock = time.perf_counter
    begin = clock()
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        t = clock()
        try:
            result = req.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        durations.append(clock() - t)
        outcomes.append(result)
    return clock() - begin, durations, outcomes


def check_round(requests, outcomes, finish, problems: list[str]) -> int:
    """Check every outcome of a round; returns how many operations failed."""
    failed = 0
    for req, result in zip(requests, outcomes):
        if isinstance(result, Exception):
            failed += 1
            if not req.expect_failure:
                problems.append(f"unexpected failure: {type(result).__name__}: {result}")
        else:
            checked(problems, req.check, result)
    if finish is not None:
        checked(problems, finish)
    return failed


def checked(problems: list[str], check, *args) -> None:
    try:
        check(*args)
    except (ref.CheckFailed, KeyError, ValueError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")


def measure(workload, seconds: float, traced_run: bool) -> dict:
    """Whole rounds until their wall time reaches ``seconds``.

    A traced run alternates untraced and traced rounds (at least one of
    each), so the two can be compared on equal inputs.
    """
    rounds, problems = [], []
    attempted = failed = 0
    measured = 0.0
    rss_first = None
    while measured < seconds or len(rounds) < (2 if traced_run else 1):
        index = len(rounds)
        traced = traced_run and index % 2 == 1
        requests, finish = workload.round(index)
        gc.collect()
        rss_before = rss_mb()
        workload.tracing(traced)
        tracer = workload.tracer if traced and isinstance(workload, InProcess) else None
        try:
            wall, durations, outcomes = run_round(requests, tracer)
        finally:
            workload.tracing(False)
        if rss_first is None:
            rss_first = peak_rss_mb(children=False)
        measured += wall
        attempted += len(requests)
        failed += check_round(requests, outcomes, finish, problems)
        del requests, finish, outcomes
        gc.collect()
        rounds.append({"wall": wall, "ops": durations, "traced": traced, "rss_gain": rss_mb() - rss_before})
    return {
        "rounds": rounds,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "rss_first": rss_first,
    }


def end_to_end(workload, setups: list[float], run: dict) -> dict:
    plain = [r for r in run["rounds"] if not r["traced"]]
    cli = isinstance(workload, CliCold)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall"] for r in plain), "s"),
        "op_p50_s": (statistics.median(d for r in plain for d in r["ops"]), "s"),
        # The CLI's figure is its largest child; in process, the peak after
        # the first round, before the unbounded caches see more rounds.
        "peak_rss_mb": (peak_rss_mb(children=True) if cli else run["rss_first"], "MB"),
    }


def per_layer(spans: list, import_s: float, bytes_out: float, run: dict, cli: bool) -> dict:
    """Per-layer figures per traced round, and the cost of tracing itself."""
    traced = [r["wall"] for r in run["rounds"] if r["traced"]]
    plain = [r["wall"] for r in run["rounds"] if not r["traced"]]
    totals = layer_totals(spans)
    n = len(traced)

    def per_round(key: str) -> float:
        return totals.get(key, 0.0) / n

    metrics = {f"{layer}.calls": (per_round(f"{layer}.calls"), "count") for layer in LAYERS}
    for key in ("asymmetry.busy_s", "lame_solver.busy_s", "polyalg.busy_s", "elliptic.busy_s",
                "harmonics.self_s", "ladder.self_s", "oracle.self_s", "cli.self_s"):
        metrics[key] = (per_round(key), "s")
    metrics["lame_solver.eigenstates"] = (per_round("lame_solver.count"), "count")
    metrics["lame_solver.polyroots_calls"] = (per_round("polyroots.calls"), "count")
    metrics["harmonics.states"] = (per_round("harmonics.count"), "count")
    metrics["ladder.terms"] = (per_round("ladder.count"), "count")
    metrics["ladder.failed"] = (per_round("ladder.failed"), "count")
    metrics["oracle.grid_points"] = (per_round("oracle.count"), "count")
    metrics["cli.import_s"] = (import_s / n, "s")
    metrics["cli.bytes_out"] = (bytes_out / n, "bytes")
    # Memory a round leaves behind, from untraced rounds (traced ones also
    # keep their spans) after the first (which sets the transients'
    # high-water mark); the CLI workload keeps nothing in this process.
    gains = [r["rss_gain"] for r in run["rounds"][1:] if not r["traced"]] or [run["rounds"][0]["rss_gain"]]
    retained = 0.0 if cli else statistics.mean(gains)
    metrics["caches.retained_mb"] = (retained, "MB")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def summary(args, setups: list[float], run: dict) -> dict:
    """Figures for people: round times, sample counts and the op tail."""
    ops = sorted(d for r in run["rounds"] if not r["traced"] for d in r["ops"])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples": setups,
        "round_walls": [r["wall"] for r in run["rounds"]],
        "ops": len(ops),
    }
    if len(ops) >= 40:
        # The highest percentile that still has ten samples beyond it.
        pct = math.floor(100 * (1 - 10 / len(ops)))
        out[f"op_p{pct}_s"] = ops[math.ceil(len(ops) * pct / 100) - 1]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        if args.setup_probe:
            print(repr(time.perf_counter() - START))
            return 0
        setups = setup_samples(args, workload)
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2

    run = measure(workload, args.seconds, bool(args.trace))
    for line in run["problems"][:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(summary(args, setups, run)))
    if args.trace:
        spans, import_s, bytes_out = workload.collected()
        metrics = per_layer(spans, import_s, bytes_out, run, isinstance(workload, CliCold))
        write_trace(args, spans)
    else:
        metrics = end_to_end(workload, setups, run)
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(args, spans: list) -> None:
    """All spans of a traced run, written once at its end.

    Each span is [name, layer, start, end, parent index, request, count,
    error class or null].
    """
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
