"""One benchmark request: a fresh interpreter running the absplit CLI.

    python3 perfbench/request.py TRACE_FILE [ABSPLIT ARGS...]

Writes ``perfbench-ready <time.monotonic()>`` to stderr once ``absplit.cli``
is imported, then runs ``absplit.cli.main(ARGS)`` and exits with its code.
With no ARGS it stops after the import (a set-up probe).  TRACE_FILE is
``-`` for an untraced request; otherwise the tracer is installed before the
call and its records are written to TRACE_FILE at exit.
"""

import sys
import time

import absplit.cli

print(f"perfbench-ready {time.monotonic()!r}", file=sys.stderr, flush=True)


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    if not argv:
        return 0
    if trace_file == "-":
        return absplit.cli.main(argv)
    import tracer

    t = tracer.install()
    try:
        return absplit.cli.main(argv)
    finally:
        t.dump(trace_file, " ".join(argv))


if __name__ == "__main__":
    sys.exit(main())
