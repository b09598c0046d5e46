"""Run the maxentcast CLI in this process and report what it cost.

    launch.py RESULT_JSON SPAWN_CLOCK TRACE CLI_ARG...

SPAWN_CLOCK is the CLOCK_MONOTONIC reading of the parent just before it
started this process; the time from it to the end of ``import maxentcast``
is the run's start-up cost.  With TRACE 1 the benchmark's tracer is
installed around the CLI.  When the CLI returns, RESULT_JSON receives the
start-up time, the peak resident memory and, when traced, the spans and
work counts; the exit code is the CLI's.
"""

import json
import sys
import time


def vm_hwm_mb() -> float:
    """Peak resident memory of this process since its program started.

    ``getrusage`` is no use here: a child started with vfork counts its
    parent's peak as its own, while VmHWM starts again at exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    result_path, spawned, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    import maxentcast.cli
    doc = {"startup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned}
    if trace:
        import tracer
        t = tracer.Tracer()
        t.install()
    try:
        code = maxentcast.cli.main(sys.argv[4:])
    finally:
        if trace:
            t.remove()
    if trace:
        doc.update(t.snapshot())
    doc["peak_mb"] = vm_hwm_mb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
