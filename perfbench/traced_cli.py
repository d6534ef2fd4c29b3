"""Run one poislin command with its entry points traced.

    python3 perfbench/traced_cli.py TRACE_FILE COMMAND ARGS...

Behaves like `python -m poislin COMMAND ARGS...` (same output, same exit
code) and writes the span totals to TRACE_FILE.  When PERFBENCH_SPAWN_NS
holds the parent's time.time_ns() taken just before the spawn, the time
from spawn to the call of cli.main, less the time spent installing the
tracer, is recorded as the counter cli.startup.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    from poislin import cli

    import tracer as tracing

    tracer = tracing.Tracer()
    began = time.time_ns()
    tracer.install()
    installing = time.time_ns() - began
    spawned = os.environ.get("PERFBENCH_SPAWN_NS")
    if spawned is not None:
        tracer.counts["cli.startup"] = (time.time_ns() - int(spawned) - installing) / 1e9
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main())
