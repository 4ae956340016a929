"""Run one pccnmf CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <pccnmf arguments...>

The command runs in this process through ``pccnmf.cli.main``; its spans and
loss-evaluation samples are written to SPANS_JSON, and the process exits with
the command's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from pccnmf import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, tracer.loss_eval_ms())


if __name__ == "__main__":
    sys.exit(main())
