"""The process entry of ``python -m uqc`` and of the ``uqc`` console script.

:func:`run` calls :func:`uqc.cli.main` and ends the process with its exit
code.  Before the interpreter exits it freezes the garbage collector
(``gc.freeze``): every object then alive, some 22,000 of them from numpy
and uqc, moves to the collector's permanent generation, so the full cyclic
collections that interpreter shutdown runs have nothing to traverse.  Those
collections cost 25-40 ms of CPU per invocation, against a few milliseconds
for a typical decision, and they free nothing that outlives the process.

The freeze is safe here because nothing runs after it but shutdown: the
output is written, the ``--out`` file closed, and shutdown still flushes the
standard streams, runs ``atexit`` and keeps the exit code, also for
argparse's ``SystemExit`` (``--version``, usage errors) and for the
broken-pipe exit 141.  It sits in ``finally`` so that those exits skip the
collections as well.  ``os._exit`` would save a little more but skips the
flush and ``atexit``.  It is not in :func:`uqc.cli.main`, which tests,
benchmarks and other in-process callers run many times in one process: they
keep a collector that frees their cycles.
"""

import gc
import sys

from .cli import main


def run():
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
