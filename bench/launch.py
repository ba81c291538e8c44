"""Run the diffchar command line in this process, like `python -m diffchar.cli`.

    python3 bench/launch.py [--trace-out PATH] -- <diffchar arguments>

Without --trace-out this only puts the checkout's src/ on the path, imports
diffchar.cli and calls its main.  With --trace-out it installs the span
wrappers of bench/tracer.py after the import and before main, and when main
returns writes the spans and the import, wrapper install and main times to
PATH.
"""

import os
import sys
from time import perf_counter

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not os.path.isfile(os.path.join(_SRC, "diffchar", "__init__.py")):
        sys.stderr.write(f"launch: no package source under {_SRC}\n")
        return 2
    sys.path.insert(0, _SRC)
    t0 = perf_counter()
    import diffchar.cli

    import_s = perf_counter() - t0
    if trace_out is None:
        return diffchar.cli.main(argv)
    import tracer as tracing

    tracer = tracing.Tracer()
    t1 = perf_counter()
    tracing.install(tracer)
    install_s = perf_counter() - t1
    tracer.op_id = 0
    tracer.enabled = True
    t1 = perf_counter()
    try:
        status = diffchar.cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    main_s = perf_counter() - t1
    tracer.enabled = False
    sys.stdout.flush()
    tracer.dump(trace_out, {"import_s": import_s, "install_s": install_s, "main_s": main_s})
    return status


if __name__ == "__main__":
    sys.exit(main())
