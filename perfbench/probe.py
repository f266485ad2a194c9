"""Set-up probe: a fresh interpreter that stops at the first RK4 step.

    python3 probe.py M3LAB_ARGS...

Runs the m3lab command and prints time.monotonic() at the moment the first
spin or NLS RK4 step is called, then exits.  The parent reads the clock
before launching the probe, so the difference covers interpreter start,
imports, config parsing, the initial condition and the first constraint
solve.
"""

import sys
import time


class FirstStep(Exception):
    pass


def stop(*args, **kwargs):
    raise FirstStep(time.monotonic())


def main(argv):
    from m3lab import cli, nls, spin
    spin.step_rk4_spin = nls.step_rk4_nls = stop
    try:
        cli.main(argv)
    except FirstStep as hit:
        print(repr(hit.args[0]))
        return 0
    print("no RK4 step was reached", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
