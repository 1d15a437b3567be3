"""One benchmark repetition, in a fresh interpreter.

Usage: python child.py SRC TRACE -- ENTROKIT-ARGS...

Imports ``entrokit.cli`` from SRC, runs ``entrokit.cli.main(ENTROKIT-ARGS)``
once (with the per-layer probes installed when TRACE is 1), and prints one
JSON line:

- ``imported_at``: CLOCK_MONOTONIC reading right after the import.  The
  parent subtracts its own reading taken just before it started this
  process, which gives the set-up time; CLOCK_MONOTONIC is system-wide, so
  the two readings share an origin.
- ``run_s``: wall time of the ``main()`` call.
- ``reference_s``: times of ``speed.reference_s()`` just before and just
  after the call.
- ``exit_code``: what ``main()`` returned.
- ``peak_rss_mb``: this process's ``ru_maxrss`` after the call, in MiB.
- ``layers``: the per-layer metrics, when traced.
"""

import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    src, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SRC TRACE -- ENTROKIT-ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import entrokit.cli

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # Refuse an entrokit found anywhere but the checkout being measured.
    if not os.path.abspath(entrokit.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"entrokit imported from {entrokit.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    from speed import reference_s

    before = reference_s()
    tracer = None
    if trace == "1":
        from probes import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        exit_code = entrokit.cli.main(argv)
        run_s = time.perf_counter() - start
    after = reference_s()
    result = {
        "imported_at": imported_at,
        "run_s": run_s,
        "reference_s": [before, after],
        "exit_code": exit_code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
