"""One benchmark child process: import smallbody.cli, then call main() on each
requested argument list and write the timings to a JSON file.

    python3 perfbench/child.py REQUEST.json

REQUEST holds ``root`` (the checkout), ``invocations`` (a list of CLI argument
lists), ``trace`` (wrap the layers with perfbench/spans.py) and ``result``
(where to write the timings).  Time
stamps are ``time.perf_counter`` values, which on Linux read the system-wide
monotonic clock, so the parent can subtract its own spawn time stamp.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        request = json.load(fh)
    src = os.path.join(request["root"], "src")
    sys.path.insert(0, src)
    import smallbody.cli as cli
    t_import = time.perf_counter()
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"smallbody imported from {cli.__file__}, not from {src}")

    tracer = None
    if request.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install(cli)

    runs = []
    for argv in request["invocations"]:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
            error = None
        except Exception:  # a traceback is a failed run, not a crashed benchmark
            rc, error = 1, traceback.format_exc()
        runs.append({"argv": argv, "rc": rc, "error": error,
                     "wall_s": time.perf_counter() - t0,
                     "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    result = {"t_import": t_import, "runs": runs}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
