"""``repro serve`` with the benchmark's spans installed in the server.

The traced ``serve-mixed`` pass starts the server through this script
instead of ``python -m repro``::

    python3 perfbench/serve_traced.py <spans.json> serve --port 0 --jobs 1

It wraps fingerprinting and the artifact store's reads and writes (see
``worker.install_store_spans``), runs the ``repro`` command line, and
writes the spans to ``<spans.json>`` once the server has drained.  The
per-miss job children run in the server's forkserver, which does not
inherit the wrappers; their time stays in the client's request spans.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Recorder
from worker import install_store_spans


def main(argv: list[str]) -> int:
    import repro.serve.jobs
    from repro.cli import main as repro_main

    spans_path = Path(argv[0])
    rec = Recorder()
    install_store_spans(rec)
    # the service keys jobs through its own imports of the fingerprints
    for name in ("fingerprint", "job_fingerprint"):
        rec.wrap(repro.serve.jobs, name, "pipeline.fingerprint")
    rec.active = True
    try:
        return repro_main(argv[1:])
    finally:
        rec.active = False
        spans_path.write_text(json.dumps(rec.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
