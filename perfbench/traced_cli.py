"""Run the ``lafr`` CLI in-process with the layer tracer installed.

Usage: python3 traced_cli.py SUMMARY_PATH SPANS_PATH OP_ID LAFR_ARGS...

Behaves like ``python3 -m lafr.cli LAFR_ARGS...`` (same stdout and exit
code) and, when the command returns, writes the tracer summary and spans.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    summary_path, spans_path, op_id = argv[:3]
    tracer = Tracer()
    tracer.install()
    tracer.op = int(op_id)
    import lafr.cli

    try:
        return lafr.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(summary_path, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
