"""Run the tau3 command line the way the installed ``tau3`` script does.

Usage: python3 bench/cli_shim.py <tau3 arguments...>

The package is imported from the ``src/`` directory next to this benchmark.
When ``TAU3_BENCH_SPANS`` names a file, the shim installs the benchmark's
span wrappers first and writes the spans, including one for ``cli.main``,
to that file as JSON when the command returns.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spans_path = os.environ.get("TAU3_BENCH_SPANS")
    if not spans_path:
        from tau3.cli import main as tau3_main
        return tau3_main(sys.argv[1:])

    import json

    import tau3.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tau3.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
