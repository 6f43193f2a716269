"""Start ``python -m repro.serve`` with the benchmark's span wrappers.

    python perfbench/serve_launch.py --trace-out spans.json -- --port 8077

Everything after ``--`` goes to the service's own argument parser.
The wrappers are installed before the service starts.  SIGTERM stops
the service the way Ctrl-C does; the recorded spans are then written
to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import signal
import sys

from tracing import SpanLog


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    signal.signal(signal.SIGTERM, signal.default_int_handler)
    log = SpanLog().install()
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        log.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
