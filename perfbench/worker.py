"""Runs one workload's rounds in a single process and times every command.

    python3 worker.py SPEC_JSON RESULT_JSON

The spec names the command chain, its schedule in one round, the output
directories, the number of rounds and whether to trace.  m3lab is imported
once (timed as `import_s`) and its commands are called in-process through
`m3lab.cli.main`, so rounds measure the commands and not interpreter
start-up, which set-up time covers.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def call(cli, argv):
    """Exit code of one command; a traceback counts as exit code 1."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crashing command is a failed command
        traceback.print_exc()
        return 1


def run_round(cli, commands, schedule, out, tracer=None):
    """One round: the chain's commands in schedule order.

    The k-th repeat of a simulate command writes under out/rep<k>, so it can
    be compared with the first; a repeated verification command reads out
    again.
    """
    rec = []
    for pos, i in enumerate(schedule):
        kind, argv = commands[i]
        k = schedule[:pos].count(i)
        dest = os.path.join(out, f"rep{k}") if k and kind == "simulate" else out
        os.makedirs(dest, exist_ok=True)
        c, s = cpu_s(), time.perf_counter()
        rc = call(cli, ["--output-dir", dest] + argv)
        cmd = {"i": i, "k": k, "rc": rc, "s": time.perf_counter() - s, "cpu_s": cpu_s() - c}
        if tracer is not None:
            cmd["trace"] = tracer.take()
        rec.append(cmd)
    return rec


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    # every layer now, so no command pays a lazy import and the tracer finds them all
    import numpy  # noqa: F401
    from m3lab import (cli, convergence, equivalence, fields, frames,  # noqa: F401
                       invariants, lax, nls, spin)
    import_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        raise SystemExit(f"m3lab imported from {cli.__file__}, not from {spec['src']}")

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    rounds = [run_round(cli, spec["commands"], spec["schedule"],
                        os.path.join(spec["out"], f"round{r}"), tracer)
              for r in range(spec["rounds"])]

    result = {"import_s": import_s, "rounds": rounds,
              "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
