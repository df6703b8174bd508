"""One cold CLI request: a fresh process that runs ``spheroconal.cli:entry``.

    python3 bench/cli_child.py spectrum --e1 0.75 --lmax 4

The arguments are passed to the CLI unchanged. The package is imported from
``src/`` next to this directory. When BENCH_TRACE_OUT names a file, the
layer wrappers of ``spans.py`` are installed around the CLI run and the
import time and spans are written there as JSON when the CLI exits.
"""

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

start = time.perf_counter()
import spheroconal.cli as cli  # noqa: E402

import_s = time.perf_counter() - start
trace_out = os.environ.get("BENCH_TRACE_OUT")
sys.argv = ["spheroconal", *sys.argv[1:]]
if not trace_out:
    cli.entry()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    cli.entry()
finally:
    tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
