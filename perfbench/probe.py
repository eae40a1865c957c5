"""Set-up probe: one fresh process that imports ``hapstack`` and loads a bundle.

    python3 perfbench/probe.py BUNDLE [--trace]

Prints one JSON line: ``import_s``, ``load_s`` and ``done``, the
``time.monotonic()`` reading once both have finished, which the parent
compares with its own reading taken just before it started this process.
With ``--trace`` the load goes through the tracer's wrapper of
``hapstack.model_io.load_bundle`` and ``load_s`` is that span's duration.
"""

import json
import sys
import time

start = time.perf_counter()
import hapstack  # noqa: E402

imported = time.perf_counter()


def main() -> int:
    bundle, trace = sys.argv[1], "--trace" in sys.argv[2:]
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    loaded_at = time.perf_counter()
    try:
        hapstack.model_io.load_bundle(bundle)
    finally:
        load_s = time.perf_counter() - loaded_at
        done = time.monotonic()
        if trace:
            tracer.restore()
    if trace:
        (span,) = [s for s in tracer.spans if s.name == "model_io.load_bundle"]
        load_s = span.duration
    print(json.dumps({"import_s": imported - start, "load_s": load_s, "done": done,
                      "module": hapstack.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
