"""Traced stand-in for ``python -m qkron``.

Usage: python3 bench/launch.py SPANS_PATH RUN_ID QKRON_ARGS...

Installs the tracing wrappers, calls ``qkron.cli.main(QKRON_ARGS)`` and
exits with its code, like ``python -m qkron`` does; the spans are written to
SPANS_PATH on the way out.
"""

import sys

import spans
from worker import import_checked


def main(argv) -> int:
    path, run_id, args = argv[1], int(argv[2]), argv[3:]
    import_checked()
    import qkron.cli

    rec = spans.Recorder(run_id)
    spans.install(rec)
    try:
        return qkron.cli.main(args)
    finally:
        sys.stdout.flush()
        rec.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
