"""Run the polystar CLI as its console script does, optionally traced.

    python3 perfbench/cli_entry.py [--trace-dir DIR] verify ...

With ``--trace-dir`` the tracer is installed before ``main`` runs, so the
``--jobs`` pool workers forked from this process trace too; each process
writes ``DIR/trace-<pid>.json`` when it ends.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from polystar.cli import main  # noqa: E402


def run(argv):
    if argv[:1] != ["--trace-dir"]:
        return main(argv)
    import tracer

    trace_dir = argv[1]
    t = tracer.Tracer().install(dump_dir=trace_dir)
    try:
        return main(argv[2:])
    finally:
        t.dump(os.path.join(trace_dir, f"trace-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
