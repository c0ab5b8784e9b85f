"""Run one ``dgft`` command under the tracer and save its spans.

Usage: ``python3 launch.py RECORD_JSON DGFT_ARGS...``. Times
``import dgft.cli``, installs the wrappers, calls ``dgft.cli.main`` and
writes ``{"start_ns", "spans", "counts"}`` to RECORD_JSON. stdout and the
exit code are the command's own.
"""

import time

START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.begin()
    before = tracing.now_ns()
    import dgft.cli

    tracer.spans.append(("cli.import", -1, before, tracing.now_ns()))
    tracer.install()
    try:
        return dgft.cli.main(argv)
    finally:
        record = tracer.end()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"start_ns": START_NS, **record}, fh)


if __name__ == "__main__":
    sys.exit(main())
