"""Print the set-up time of rhnumbers in this fresh interpreter, in seconds.

    PYTHONPATH=src python3 bench/setup_probe.py

run.py starts it several times per run and reports the median as
setup_s.  Set-up is the interpreter's launch, the import of rhnumbers
and one warm-up op, measured as the process's CPU time (which leaves
out waiting for a core) at the reference speed of refclock.  Before
rhnumbers only sys, io, resource and refclock's calibrate() are
imported, so none of the benchmark's own start-up is in the figure.
"""

import io
import resource
import sys

from refclock import REFERENCE_S, calibrate

_START_SPEED = REFERENCE_S / calibrate()  # sampled before rhnumbers is imported


def main() -> int:
    from rhnumbers.cli import run_cli

    if run_cli(["classify", "1729"], io.StringIO(), io.StringIO()) != 0:
        print("error: warm-up op failed", file=sys.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    speed = (_START_SPEED + REFERENCE_S / calibrate()) / 2
    print((usage.ru_utime + usage.ru_stime) * speed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
