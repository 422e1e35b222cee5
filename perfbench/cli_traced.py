"""The widewalk CLI with spans around its import, its main() and the public
library calls main() makes.

    python3 perfbench/cli_traced.py TRACE_FILE ARGS...

Behaves as `python3 -m widewalk.cli ARGS...`: same stdout bytes, same
exit code.  Spans are written to TRACE_FILE as JSON lines at exit.
"""
from __future__ import annotations

import sys

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import widewalk.cli
    tracer.install()
    with tracer.span("cli.main"):
        code = widewalk.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
