"""The benchmark tracer's wrap table names functions that still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in spans.WRAPS
        if module != "mpmath"
        and not hasattr(importlib.import_module("spheroconal." + module), name)
    ]
    assert not missing, missing
