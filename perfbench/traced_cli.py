"""Run one ``shifteval`` CLI command with layer tracing.

Usage: python traced_cli.py SPANS_JSON <shifteval arguments...>

Imports ``shifteval.cli`` (timing the import), installs the tracer, runs the
command through ``shifteval.cli.main`` and writes the import time, spans
and counters to SPANS_JSON. Exits with the command's exit code.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tic = time.perf_counter()
    import shifteval.cli

    import_s = time.perf_counter() - tic
    tracer = Tracer()
    tracer.install()
    try:
        code = shifteval.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, **tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
