"""Run the pvb command line with the benchmark tracer installed.

    python3 perfbench/sweep_traced.py FLUSH_DIR sweep INSTANCE_DIR ...

Spans of this process and of the worker processes it forks are appended
to FLUSH_DIR/spans-<pid>.jsonl; run.py merges them. pvb must be
importable (run.py puts src/ on PYTHONPATH).
"""

import sys
from pathlib import Path

from tracer import Tracer, install


def main() -> int:
    from pvb import cli

    tracer = Tracer(Path(sys.argv[1]))
    install(tracer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
