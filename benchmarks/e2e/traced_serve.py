"""``repro serve`` with the per-layer timers of :mod:`tracing` installed.

Run it like the CLI, with the spans directory in the environment::

    REPRO_E2E_SPANS_DIR=spans PYTHONPATH=src \\
        python benchmarks/e2e/traced_serve.py serve --workers 1

The pool's spawn start method re-imports this file as ``__mp_main__``
in every worker, so the wrappers are installed there too before the
first job arrives.
"""

import os
import sys

if __name__ in ("__main__", "__mp_main__"):
    import tracing

    tracing.install(tracing.SpanRecorder(), os.environ[tracing.SPANS_DIR_ENV])

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
