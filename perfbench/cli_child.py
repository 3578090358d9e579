"""Run ``realcat.cli`` in this process, between host-speed calibration slices.

    PYTHONPATH=src python3 perfbench/cli_child.py verify approx

The cli workload starts every command through this file instead of
``python3 -m realcat.cli``: a fresh process runs at the speed of its own
core, which the parent's calibration does not see (clock.py).  Two slices
run before the command and two at exit; their costs are the last line of
stderr, which the runner strips and subtracts from the job's time.
"""

import atexit
import runpy
import sys

import clock

_clock = clock.HostClock()


def _report():
    _clock.calibrate()
    _clock.calibrate()
    print(clock.MARKER + " ".join(repr(c) for c in _clock.costs), file=sys.stderr)


_clock.calibrate()
_clock.calibrate()
atexit.register(_report)
sys.argv = ["realcat", *sys.argv[1:]]
runpy.run_module("realcat.cli", run_name="__main__", alter_sys=True)
