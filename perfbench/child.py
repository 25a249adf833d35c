"""Run the coshare CLI in a child process, optionally traced.

Usage: python3 child.py [--trace-out FILE] -- <coshare arguments>

Goes through the real ``coshare.cli.main``, exactly as the ``coshare``
console script does, so an uncaught exception still ends the process with a
traceback and exit code 1.  With --trace-out the tracer is installed before
``main`` runs, and the spans plus the import time are written to FILE when
the process ends, whatever the outcome.
"""

import sys
import time


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    start = time.perf_counter()
    from coshare.cli import main as coshare_main
    import_s = time.perf_counter() - start
    if trace_out is None:
        return coshare_main(argv)
    from tracer import Tracer
    tracer = Tracer().install()
    try:
        return coshare_main(argv)
    finally:
        tracer.dump(trace_out, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
