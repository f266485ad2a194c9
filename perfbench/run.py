"""m3lab benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload equiv-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source tree: m3lab is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`).  A fuller result,
with the environment it ran in, is written under perfbench/results/.
Run outputs go to perfbench/runs/ and are deleted before exit.
"""

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 7          # set-up time is the median of this many launches
DEADLINE_S = 170.0        # the whole run ends well inside 180 s
THREADS = "1"

END_TO_END = {"wall_s": "s", "simulate_s": "s", "verify_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> (source, key, field, unit); "span" reads the tracer's
# per-name aggregates, "count" its counters, "rate" divides a counter by the
# inclusive time of a span, "command" reads the worker's timers of each
# command, "import" its one import of m3lab.  Each is a
# figure for one pass of the chain: per command, the median over its samples.
PER_LAYER = {
    "fields.fft.calls": ("count", "fields.fft.calls", None, "count"),
    "fields.fft.points": ("count", "fields.fft.points", None, "count"),
    "fields.ddx.s": ("span", "fields.ddx", "self_s", "s"),
    "fields.ddy.s": ("span", "fields.ddy", "self_s", "s"),
    "fields.inv_dx.s": ("span", "fields.inv_dx", "self_s", "s"),
    "fields.check_finite.s": ("span", "fields.check_finite", "self_s", "s"),
    "fields.mfld1_write.s": ("span", "fields.write_mfld1", "self_s", "s"),
    "fields.mfld1_write.bytes": ("count", "fields.mfld1_write.bytes", None, "B"),
    "fields.mfld1_read.s": ("span", "fields.read_mfld1", "self_s", "s"),
    "fields.mfld1_read.bytes": ("count", "fields.mfld1_read.bytes", None, "B"),
    "spin.spin_rhs.calls": ("span", "spin.spin_rhs", "calls", "count"),
    "spin.spin_rhs.s": ("span", "spin.spin_rhs", "self_s", "s"),
    "spin.step_rk4_spin.s": ("span", "spin.step_rk4_spin", "self_s", "s"),
    "spin.solve_u.s": ("span", "spin.solve_u", "self_s", "s"),
    "spin.solve_v.s": ("span", "spin.solve_v", "self_s", "s"),
    "spin.cells_per_s": ("rate", "spin.cells", "spin.step_rk4_spin", "1/s"),
    "nls.nls_rhs.calls": ("span", "nls.nls_rhs", "calls", "count"),
    "nls.nls_rhs.s": ("span", "nls.nls_rhs", "self_s", "s"),
    "nls.solve_v_nls.s": ("span", "nls.solve_v_nls", "self_s", "s"),
    "nls.step_rk4_nls.s": ("span", "nls.step_rk4_nls", "self_s", "s"),
    "nls.cells_per_s": ("rate", "nls.cells", "nls.step_rk4_nls", "1/s"),
    "frames.frame_from_spin.calls": ("span", "frames.frame_from_spin", "calls", "count"),
    "frames.frame_from_spin.s": ("span", "frames.frame_from_spin", "self_s", "s"),
    "frames.masked_points": ("count", "frames.masked_points", None, "count"),
    "frames.coeffs_from_frame.calls": ("span", "frames.coeffs_from_frame", "calls", "count"),
    "frames.coeffs_from_frame.s": ("span", "frames.coeffs_from_frame", "self_s", "s"),
    "frames.mlxii_residual.s": ("span", "frames.mlxii_residual", "self_s", "s"),
    "invariants.charges.calls": ("span", "invariants.charges", "calls", "count"),
    "invariants.charges.s": ("span", "invariants.charges", "self_s", "s"),
    "lax.build_lax_q.calls": ("span", "lax.build_lax_q", "calls", "count"),
    "lax.build_lax_q.s": ("span", "lax.build_lax_q", "self_s", "s"),
    "lax.zero_curvature_q.s": ("span", "lax.zero_curvature_q", "self_s", "s"),
    "equivalence.equiv_residual.s": ("span", "equivalence.equiv_residual", "self_s", "s"),
    "equivalence.q_from_spin.s": ("span", "equivalence.q_from_spin", "self_s", "s"),
    "equivalence.l_equiv_check.s": ("span", "equivalence.l_equiv_check", "self_s", "s"),
    "cli.simulate-spin.s": ("span", "cli.simulate-spin", "self_s", "s"),
    "cli.simulate-nls.s": ("span", "cli.simulate-nls", "self_s", "s"),
    "cli.frame.s": ("span", "cli.frame", "self_s", "s"),
    "cli.equiv-check.s": ("span", "cli.equiv-check", "self_s", "s"),
    "cli.lax-check.s": ("span", "cli.lax-check", "self_s", "s"),
    "cli.charges.s": ("span", "cli.charges", "self_s", "s"),
    "cli.parse_config.s": ("span", "cli.parse_config_text", "self_s", "s"),
    "run.import_s": ("import", None, None, "s"),
    "run.cpu_s": ("command", "cpu_s", None, "s"),
    "run.traced_wall_s": ("command", "s", None, "s"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["M3LAB_THREADS"] = THREADS
    # the pools read these when numpy loads, before m3lab's cap applies
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = THREADS
    return env


def remaining(t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        fail("out of time")
    return left


def setup_times(plan, work, env, t_start):
    """Median launch-to-first-RK4-step time of fresh interpreters."""
    probe = os.path.join(HERE, "probe.py")
    out = []
    for i in range(SETUP_PROBES + 1):  # the first launch warms caches
        t0 = time.monotonic()
        r = subprocess.run([sys.executable, probe, "--output-dir",
                            os.path.join(work, f"probe{i}")] + plan.probe,
                           env=env, cwd=work, capture_output=True, text=True,
                           timeout=remaining(t_start))
        if r.returncode != 0:
            fail(f"set-up probe failed ({r.returncode}): {r.stderr.strip()[-500:]}")
        if i:
            out.append(float(r.stdout.strip().splitlines()[-1]) - t0)
    return out


def run_worker(plan, args, work, env, t_start):
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "worker.json")
    with open(spec_path, "w") as fh:
        json.dump({"commands": plan.commands, "schedule": plan.schedule,
                   "out": os.path.join(work, "out"),
                   "rounds": plan.rounds(args.seconds), "trace": bool(args.trace),
                   "src": SRC}, fh)
    r = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                       env=env, cwd=work, timeout=remaining(t_start))
    if r.returncode != 0:
        fail(f"worker exited with {r.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def judge(plan, res, work):
    """(attempted, failed, messages) over every command the worker ran.

    The checks of command i judge its first sample of the round; every
    further sample of a simulate command must match that one byte for byte.
    """
    attempted = failed = 0
    messages = []
    for r, rnd in enumerate(res["rounds"]):
        out = os.path.join(work, "out", f"round{r}")
        found = plan.check(out)
        first = os.path.join(out, plan.run_name)
        for cmd in rnd:
            i, k = cmd["i"], cmd["k"]
            kind = plan.commands[i][0]
            attempted += 1
            why = [] if cmd["rc"] == 0 else [f"exit code {cmd['rc']}"]
            if k == 0:
                why += found.get(i, [])
            elif kind == workloads.SIMULATE:
                why += checks.identical(first, os.path.join(out, f"rep{k}", plan.run_name))
            if why:
                failed += 1
                messages += [f"round {r} {plan.commands[i][1][0]} #{k}: {m}" for m in why]
    return attempted, failed, messages


def chain_sum(res, plan, value):
    """Sum over the chain of each command's median over all its samples."""
    return sum(statistics.median(value(c) for rnd in res["rounds"] for c in rnd if c["i"] == i)
               for i in range(len(plan.commands)))


def end_to_end(res, setup, plan):
    def kind_s(kind):
        return lambda c: c["s"] if plan.commands[c["i"]][0] == kind else 0.0
    return {"wall_s": chain_sum(res, plan, lambda c: c["s"]),
            "simulate_s": chain_sum(res, plan, kind_s(workloads.SIMULATE)),
            "verify_s": chain_sum(res, plan, kind_s(workloads.VERIFY)),
            "setup_s": statistics.median(setup), "peak_rss_mb": res["maxrss_mb"]}


def per_layer(res, plan):
    def value(source, key, fld):
        if source == "span":
            return lambda c: c["trace"]["spans"].get(key, {}).get(fld, 0)
        if source == "count":
            return lambda c: c["trace"]["counts"].get(key, 0)
        return lambda c: c[key]

    out = {}
    for name, (source, key, fld, _) in PER_LAYER.items():
        if source == "import":
            out[name] = res["import_s"]
        elif source == "rate":
            busy = chain_sum(res, plan, value("span", fld, "incl_s"))
            out[name] = chain_sum(res, plan, value("count", key, None)) / busy if busy else 0.0
        else:
            out[name] = chain_sum(res, plan, value(source, key, fld))
    return out


def environment():
    import numpy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "M3LAB_THREADS": THREADS, "src_lines": lines}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    # a terminated run still stops its child processes and removes its outputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "m3lab", "cli.py")):
        fail(f"no m3lab sources under {SRC}")

    work = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    env = child_env()
    try:
        plan = workloads.plan(args.workload, args.seed, os.path.join(work, "inputs"))
        phases = [time.monotonic()]
        setup = setup_times(plan, work, env, t_start)
        phases.append(time.monotonic())
        res = run_worker(plan, args, work, env, t_start)
        phases.append(time.monotonic())
        attempted, failed, messages = judge(plan, res, work)
        phases.append(time.monotonic())
    except subprocess.TimeoutExpired:
        fail("out of time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUNS)  # only when no other run is using it

    if args.trace:
        values, units = per_layer(res, plan), {k: v[3] for k, v in PER_LAYER.items()}
    else:
        values, units = end_to_end(res, setup, plan), END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**summary, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "rounds": len(res["rounds"]),
                   "setup_samples": setup, "failures": messages,
                   "phase_s": dict(zip(("probes", "worker", "checks"),
                                       (b - a for a, b in zip(phases, phases[1:])))),
                   "environment": environment(), "worker": res}, fh, indent=1)
    for m in messages:
        print(f"FAIL {m}", file=sys.stderr)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
