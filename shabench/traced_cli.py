"""Run the shaclass command line under span tracing.

    python3 shabench/traced_cli.py SPANS_FILE SPAWN_TIME -- analyze ...

SPAWN_TIME is the parent's time.perf_counter() just before it started this
process.  On Linux perf_counter reads CLOCK_MONOTONIC, one clock for every
process, so its distance to the first statement below is the interpreter's
start-up.  The spans and the start-up and import times go to SPANS_FILE
when the command returns.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402


def main():
    spans_file, spawned = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    import shaclass.cli as cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file, {"interp_s": _STARTED - spawned, "import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
