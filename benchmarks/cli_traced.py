"""Run one ``microdse`` command with layer spans recorded.

    python3 cli_traced.py SPANS_JSON COMMAND [ARGS...]

Behaves like ``python3 -m microdse.cli COMMAND [ARGS...]`` and also writes
the command's spans, its per-layer error counts and the wall-clock time at
which ``main`` was entered (for the start-up share) to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from microdse import cli

    tracer = Tracer()
    tracer.install()
    t_main = time.time()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"t_main": t_main, **tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main())
