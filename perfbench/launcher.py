"""Run ``repro-divide`` in this process, optionally with layer tracing.

The serve workload starts its server through this launcher::

    python3 perfbench/launcher.py [--trace-out SPANS.jsonl] <repro-divide args>

Without ``--trace-out`` it only calls :func:`repro.cli.main`. With it, the
serve-side layer wrappers of :mod:`tracing` are installed first and
recording starts on: the server's set-up (map, explode, index build) is
traced. SIGUSR1 turns recording off and SIGUSR2 turns it back on under
run id ``traced``, so the client can compare untraced and traced phases
against one server. Spans are written to the file when the CLI returns.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from typing import List

import common
import tracing


def main(argv: List[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out = Path(argv[1])
        argv = argv[2:]
    # Background jobs of a non-interactive shell start with SIGINT
    # ignored, and Python keeps it ignored; the client stops the server
    # with SIGINT, so restore the handler that raises KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    common.use_source_tree()
    from repro import cli

    if trace_out is None:
        return cli.main(argv)

    tracer = tracing.Tracer()
    tracer.install(tracing.SERVE_TARGETS)
    tracer.enabled = True

    def stop_recording(signum, frame) -> None:
        tracer.enabled = False

    def start_recording(signum, frame) -> None:
        tracer.run_id = "traced"
        tracer.enabled = True

    signal.signal(signal.SIGUSR1, stop_recording)
    signal.signal(signal.SIGUSR2, start_recording)
    try:
        return cli.main(argv)
    finally:
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
