"""Run one cgdbm CLI stage in a fresh process, optionally traced.

    python3 perfbench/stage.py [--trace-out FILE] <cgdbm arguments...>

The stage goes through ``cgdbm.cli.main``, the entry point of the
``cgdbm`` command.  With ``--trace-out`` the layer tracer is installed
first and its spans are written to FILE when the stage returns.  The
exit code is the stage's own.
"""

import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    import cgdbm.cli
    if trace_out is None:
        return cgdbm.cli.main(argv)
    from tracer import Tracer
    tracer = Tracer().install()
    try:
        return cgdbm.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
