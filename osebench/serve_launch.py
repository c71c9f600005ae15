"""Start ``python -m repro.serve`` with the benchmark's layer wrappers.

    python3 osebench/serve_launch.py SPANS_PATH [repro.serve arguments]

Installs the same span wrappers as the traced benchmark process (plus the
service's compute thunk), runs the ordinary serve entry point until it
drains on SIGTERM, then writes every span to ``SPANS_PATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    spans_path = Path(sys.argv[1])
    sys.path.insert(0, str(Path("src").resolve()))
    from repro.serve.__main__ import main as serve_main
    from tracing import Tracer, write_spans

    tracer = Tracer()
    tracer.install(server=True)
    # Every span counts; the benchmark keeps those inside its units.
    tracer.unit = "serve"
    try:
        return serve_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        write_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
