"""Run one thermoscale CLI command with the tracer installed, and save its spans.

Usage: ``python3 perfbench/cli_traced.py OUT.json <thermoscale arguments>`` with
``src`` on ``PYTHONPATH``. Exits with the command's own exit code.
"""

import sys

import tracer
from thermoscale import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    spans.keep_spans = True
    spans.install()
    try:
        with spans.span(f"cli.main.{argv[0]}"):
            code = cli.main(argv)
    finally:
        spans.uninstall()
    spans.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
