"""``repro serve`` with spans around its layer boundaries.

    python3 perfbench/serve_traced.py <spans.json> serve <archive> ...

Runs the CLI in-process exactly as ``python -m repro`` would, after
:func:`tracing.install` has wrapped the layer boundaries (recording
from the moment the ingress starts) and a :class:`common.GcMonitor` is
timing every collection.  When the server
exits (SIGTERM is its graceful path) the spans and collections are
written to ``<spans.json>``.  The traced ``wire-single`` run boots the
server through this wrapper; the untraced run boots it bare.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
from common import GcMonitor  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install(tracing.Tracer())
    gc_monitor = GcMonitor()
    from repro.cli import main as cli_main
    from repro.serve.http import HttpIngress

    # Record from the moment the ingress starts listening: the boot's
    # pipeline encodes would otherwise count as served traffic.
    tracer.active = False
    start = HttpIngress.start

    def start_listening(self):
        tracer.active = True
        return start(self)

    HttpIngress.start = start_listening

    try:
        return cli_main(argv)
    finally:
        gc_monitor.close()
        tracer.dump(out, gc=gc_monitor.events)


if __name__ == "__main__":
    sys.exit(main())
