"""Spans around calls into each layer, recorded from the benchmark's side.

The program is not edited: the tracer replaces each public function with a
recording wrapper in the namespace of the module that calls it (for example
``harmonics.solve`` is the solver as the harmonics layer binds it), and puts
the original back afterwards. A span is [name, layer, start, end, parent,
request, count, error]; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import time

# (calling module, name bound there, layer of the callee, what to count).
# Counts: "len" = items returned, "terms" = terms of a decomposition,
# "grid" = grid points of the input field; None = nothing.
WRAPS = (
    ("asymmetry", "from_e1", "asymmetry", None),
    ("asymmetry", "from_moments", "asymmetry", None),
    ("cli", "from_e1", "asymmetry", None),
    ("cli", "from_moments", "asymmetry", None),
    ("ladder", "from_e1", "asymmetry", None),
    ("ladder", "e1_from_modulus", "asymmetry", None),
    ("harmonics", "solve", "lame_solver", "len"),
    ("cli", "apply_operator", "lame_solver", None),
    ("harmonics", "build_basis", "harmonics", "len"),
    ("harmonics", "total_energy", "harmonics", None),
    ("ladder", "build_basis", "harmonics", "len"),
    ("ladder", "species_for_label", "harmonics", None),
    ("cli", "build_basis", "harmonics", "len"),
    ("cli", "total_energy", "harmonics", None),
    ("oracle", "evaluate", "harmonics", None),
    ("lame_solver", "differentiate", "polyalg", None),
    ("ladder", "d_chi1", "polyalg", None),
    ("ladder", "d_chi2", "polyalg", None),
    ("ladder", "divide_by_scale", "polyalg", None),
    ("ladder", "invert_basis", "polyalg", None),
    ("ladder", "mul_factor_bi", "polyalg", None),
    ("cli", "divide_by_scale", "polyalg", None),
    ("ladder", "apply_angular_momentum", "ladder", "terms"),
    ("ladder", "apply_linear_momentum", "ladder", "terms"),
    ("cli", "apply_angular_momentum", "ladder", "terms"),
    ("cli", "apply_linear_momentum", "ladder", "terms"),
    ("cli", "angular_momentum_matrix", "ladder", None),
    ("cli", "fd_operator", "oracle", "grid"),
    ("cli", "make_grid", "oracle", None),
    ("cli", "state_field", "oracle", None),
    ("oracle", "jacobi", "elliptic", None),
    ("oracle", "quarter_period", "elliptic", None),
    ("polyalg", "jacobi", "elliptic", None),
    ("cli", "main", "cli", None),
)

# The arbitrary-precision root finder the solver falls back on; counted as
# a span of its own so the solver path shows.
POLYROOTS = ("mpmath", "polyroots", "polyroots", None)

LAYERS = ("asymmetry", "lame_solver", "harmonics", "polyalg", "ladder", "oracle", "elliptic", "cli")

_COUNTERS = {
    None: lambda args, result: 0,
    "len": lambda args, result: len(result),
    "terms": lambda args, result: len(result.terms),
    "grid": lambda args, result: args[1].values.size,
}


def _module(name: str):
    if name == "mpmath":
        return importlib.import_module("mpmath")
    return importlib.import_module("spheroconal." + name)


class Tracer:
    """Records spans while installed; ``request`` tags the spans of one request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn, count):
        spans, stack, counter = self.spans, self._stack, _COUNTERS[count]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.request, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            span[6] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, layer, count in WRAPS + (POLYROOTS,):
            module = _module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", layer, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, busy time, self time, counts and failures.

    Busy time is the wall time covered by a layer's outermost spans (its
    callees included); self time subtracts the time covered by child spans.
    Spans of one process nest strictly, so the children of a span never
    overlap and their durations add up.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i, (name, layer, start, end, parent, _req, count, error) in enumerate(spans):
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", end - start - child_time[i])
        add(f"{layer}.count", count)
        if error is not None:
            add(f"{layer}.failed", 1)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][1] != layer:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            add(f"{layer}.busy_s", end - start)
    return out
