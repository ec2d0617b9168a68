"""Run one `divvar` CLI invocation in this fresh process and report on it.

Usage: python3 child.py SRC_DIR TRACE ARG...

Imports `divvar.cli` from SRC_DIR, times the import, then calls
`divvar.cli.main([ARG...])` with stdout and stderr captured, as the
`divvar` script does.  With TRACE=1 the public functions named in
`tracing.WRAPPED` are wrapped first, so every call records a span.

Prints one JSON object on stdout: the exit code, the captured report and
messages, the import and `main` seconds, the peak RSS of this process and,
when traced, the spans.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import divvar.cli  # noqa: E402  (the import is what set-up time measures)

_t1 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402  (it sits next to this script)


def run(trace: bool, argv: list) -> dict:
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = divvar.cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaped exception is a failure to report
            traceback.print_exc()
            code = -1
        end = time.perf_counter()
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "setup_s": _t1 - _t0,
        "wall_s": end - start,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }


if __name__ == "__main__":
    result = run(sys.argv[2] == "1", sys.argv[3:])
    sys.stdout.write(json.dumps(result))
