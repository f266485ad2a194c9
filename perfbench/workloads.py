"""The three workloads: inputs made from the seed, command chains, checks.

A workload is a chain of m3lab commands (one round) plus the checks that
judge each command's output.  A round follows a schedule of the chain's
commands in which a command that is short next to the chain comes back
several times, spread over the round, so its median rests on samples taken
apart in time: a repeated simulate command writes to a directory of its own
and must reproduce the first one byte for byte; a repeated verification
command reads the same run again.  Every input is generated here from the seed;
m3lab only sees the files written below.  The seed changes values, never
sizes or step counts, so every seed costs the same work.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks

TWO_PI = 2.0 * math.pi
SIMULATE, VERIFY = "simulate", "verify"


@dataclass
class Plan:
    commands: list                 # the chain, [(kind, argv)]
    schedule: list                 # command indices of one round, in order
    probe: list                    # argv whose first RK4 step ends set-up
    run_name: str                  # the run directory the chain writes
    round_s: float                 # nominal length of one round on a 2-core VM
    checker: object                # (run dir, plan) -> {command index: [failures]}
    params: dict = field(default_factory=dict)

    def rounds(self, seconds):
        """Whole rounds that fit the run length; at least one.

        Fixed from the nominal round length, not from the clock, so every run
        of a workload takes the same samples however fast the host is.
        """
        return max(1, int(seconds // self.round_s))

    def check(self, out):
        """{command index: [failure messages]} for one round's output."""
        return self.checker(os.path.join(out, self.run_name), self)


def _config(path, values):
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in values.items())
    return path


def _default_dt(n):
    return 0.2 * (TWO_PI / n) ** 2


# ---------------------------------------------------------------------------
# equiv-ladder: acceptance criterion 06 on a seeded reference helix
# ---------------------------------------------------------------------------

def equiv_ladder(seed, inputs):
    rng = np.random.default_rng([seed, 6])
    c = round(float(rng.uniform(0.25, 0.35)), 6)
    eps = round(float(rng.uniform(0.04, 0.06)), 6)
    cfg = _config(os.path.join(inputs, "spin.cfg"), {
        "grid.nx": 64, "grid.ny": 64, "model": "M3",
        "params.c": c, "params.d": 1.0, "params.l": 0.0, "params.beta": 1,
        "scheme": "spectral", "spin.init": "modulated-helix",
        "spin.init.eps": eps, "spin.init.kappa": 1,
        "t_end": 0.2, "save_every": 26, "output_dir": "helix"})
    sim = ["simulate-spin", cfg]
    return Plan(commands=[(SIMULATE, sim),
                          (VERIFY, ["equiv-check", "helix", "--ladder", "32,64,128"])],
                schedule=[0, 0, 1, 0, 0, 0], probe=sim, run_name="helix", round_s=30.0,
                checker=_check_equiv)


def _check_equiv(run, plan):
    return {0: checks.unit_spin(run) + checks.u_constraint(run),
            1: checks.ladder(run) + checks.equiv_diagnostics(run)}


# ---------------------------------------------------------------------------
# nls-flatness: seeded smooth q0, M3q at n = 128, lambda scan
# ---------------------------------------------------------------------------

NLS_N, NLS_STEPS, NLS_SAVE, NLS_MODES, NLS_LAMBDAS = 128, 300, 10, 4, 32


def nls_initial(seed, n):
    """A few low Fourier modes with random complex weights, max |q0| = 0.3."""
    rng = np.random.default_rng([seed, 7])
    ks = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
    pick = rng.choice(len(ks), size=NLS_MODES, replace=False)
    x = np.arange(n) * TWO_PI / n
    X, Y = np.meshgrid(x, x)
    q = np.zeros((n, n), complex)
    for i in pick:
        k1, k2 = ks[i]
        q += complex(*rng.normal(size=2)) * np.exp(1j * (k1 * X + k2 * Y))
    return 0.3 * q / np.max(np.abs(q))


def lambda_scan(seed):
    """Half the scan with negative real part; |lam| up to about 1.2."""
    rng = np.random.default_rng([seed, 8])
    half = NLS_LAMBDAS // 2
    re = np.concatenate([-rng.uniform(0.05, 0.9, half), rng.uniform(0.0, 0.9, half)])
    im = rng.uniform(-0.8, 0.8, NLS_LAMBDAS)
    return [complex(round(float(a), 6), round(float(b), 6)) for a, b in zip(re, im)]


def nls_flatness(seed, inputs):
    q0 = nls_initial(seed, NLS_N)
    init = os.path.join(inputs, "q0.mfld1")
    checks.write_mfld1(init, np.stack([q0.real, q0.imag], axis=-1))
    dt = _default_dt(NLS_N)
    cfg = _config(os.path.join(inputs, "nls.cfg"), {
        "grid.nx": NLS_N, "grid.ny": NLS_N, "model": "M3q",
        "params.c": 0.3, "params.d": 1.0, "params.beta": 1,
        "scheme": "spectral", "nls.init": init,
        "dt": repr(dt), "t_end": repr(NLS_STEPS * dt), "save_every": NLS_SAVE,
        "output_dir": "flat"})
    lams = lambda_scan(seed)
    # `--lambda=RE,IM`: argparse takes a separate "-0.2,0.4" for an option
    scan = [f"--lambda={z.real!r},{z.imag!r}" for z in lams]
    sim = ["simulate-nls", cfg]
    return Plan(commands=[(SIMULATE, sim), (VERIFY, ["lax-check", "flat"] + scan)],
                schedule=[0, 1, 1, 1], probe=sim, run_name="flat", round_s=9.0,
                checker=_check_nls, params={"lams": lams, "beta": 1})


def _check_nls(run, plan):
    return {0: checks.nls_slices(run, plan.params["beta"]),
            1: checks.flatness(run, plan.params["lams"])}


# ---------------------------------------------------------------------------
# lump-charges: degree-one stereographic lump at n = 256, every state saved
# ---------------------------------------------------------------------------

LUMP_N, LUMP_STEPS, LUMP_SAVE, LUMP_RADIUS = 256, 24, 2, 0.45


def lump_initial(seed, n):
    """The compact degree-one lump of configs/lump.cfg, moved by the seed.

    A whole-cell periodic shift and a rotation about the third axis keep
    the degree, the smoothness and the number of degenerate points.
    """
    rng = np.random.default_rng([seed, 9])
    x = np.arange(n) * TWO_PI / n
    X, Y = np.meshgrid(x, x)
    dx_, dy_ = X - math.pi, Y - math.pi
    t = np.hypot(dx_, dy_) / (LUMP_RADIUS * TWO_PI)
    bump = np.zeros_like(t)
    inside = t < 1.0
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    theta = math.pi * bump
    phi = np.arctan2(-dy_, dx_) + rng.uniform(0.0, TWO_PI)
    S = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                  np.cos(theta)], axis=-1)
    shift = rng.integers(0, n, size=2)
    return np.roll(S, (int(shift[0]), int(shift[1])), axis=(0, 1))


def lump_charges(seed, inputs):
    init = os.path.join(inputs, "lump0.mfld1")
    checks.write_mfld1(init, lump_initial(seed, LUMP_N))
    dt = _default_dt(LUMP_N)
    cfg = _config(os.path.join(inputs, "lump.cfg"), {
        "grid.nx": LUMP_N, "grid.ny": LUMP_N, "model": "M3",
        "params.c": 0.25, "params.d": 1.0, "params.l": 0.0,
        "scheme": "spectral", "spin.init": init,
        "dt": repr(dt), "t_end": repr(LUMP_STEPS * dt), "save_every": LUMP_SAVE,
        "output_dir": "lump"})
    sim = ["simulate-spin", cfg]
    return Plan(commands=[(SIMULATE, sim), (VERIFY, ["frame", "lump"]),
                          (VERIFY, ["charges", "lump"])],
                schedule=[0, 1, 2], probe=sim, run_name="lump", round_s=14.0,
                checker=_check_lump)


def _check_lump(run, plan):
    try:
        qs = checks.degrees(run)
    except (OSError, ValueError, KeyError) as exc:
        return {0: [f"unreadable spin slices: {exc!r}"]}
    return {0: checks.unit_spin(run) + checks.lump_degree(qs)
            + checks.reported_q1(run, "invariants.csv", qs),
            1: checks.frames_orthonormal(run),
            2: checks.reported_q1(run, "charges.csv", qs)}


WORKLOADS = {"equiv-ladder": equiv_ladder, "nls-flatness": nls_flatness,
             "lump-charges": lump_charges}


def plan(workload, seed, inputs):
    os.makedirs(inputs, exist_ok=True)
    return WORKLOADS[workload](seed, inputs)
