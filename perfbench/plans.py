"""Workload inputs: campaign plans and CLI invocations derived from a seed.

Kept import-light on purpose: ``setup_probe.py`` imports this module in a
fresh process to time package import plus plan validation, so anything
imported here beyond ``thermoscale`` would be charged to ``setup_s``.
"""

from __future__ import annotations

import hashlib
import math
import random

from thermoscale.interferometry import BathSpec, max_theta
from thermoscale.sweep import SweepPlan

CAMPAIGNS = ("thermal-sweep", "noon-sweep", "bath-floor")
WORKLOADS = CAMPAIGNS + ("cli-cold",)

# The CLI sweep of cli-cold: thermalizing, 4 sizes x 10^3 trials.
CLI_SWEEP_SIZES = (16, 64, 256, 1024)
CLI_SWEEP_TRIALS = 1000


def master_seed(workload: str, seed: int, k: int) -> int:
    """64-bit master seed of campaign (or CLI cycle) ``k`` of a workload run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def campaign_plan(workload: str, seed: int, k: int, tiny: bool = False) -> SweepPlan:
    """Plan of campaign ``k``; ``tiny`` shrinks the trial budget for the self-test.

    thermal-sweep, noon-sweep and bath-floor are the A4, A5 and A9 acceptance
    plans with only the master seed changed; cli-cold's plan is the small
    sweep its ``sweep`` invocation runs.
    """
    ms = master_seed(workload, seed, k)
    if workload == "thermal-sweep":
        return SweepPlan(
            protocol="thermalizing",
            n_values=tuple(16 * 2**i for i in range(4 if tiny else 9)),  # 16 .. 4096
            trials_per_n=200 if tiny else 10**4,
            master_seed=ms,
            epsilon=1.0,
            beta_true=1.0,
            estimator="jeffreys",
        )
    if workload == "noon-sweep":
        bath = BathSpec(m_atoms=10**4, epsilon=1.0, beta_true=1.0, alpha=max_theta(10**4, 32), tau=1.0)
        return SweepPlan(
            protocol="noon",
            n_values=(2, 4, 8, 16, 32),
            trials_per_n=50 if tiny else 10**3,
            master_seed=ms,
            bath=bath,
            bath_mode="fixed_m",
            repetitions=200,
        )
    if workload == "bath-floor":
        bath = BathSpec(m_atoms=100, epsilon=1.0, beta_true=1.0, alpha=math.pi / 200.0, tau=1.0)
        return SweepPlan(
            protocol="sn",
            n_values=(10**2, 10**3, 10**4, 10**5),
            trials_per_n=100 if tiny else 2000,
            master_seed=ms,
            bath=bath,
            bath_mode="sampled_m",
        )
    if workload == "cli-cold":
        return SweepPlan(
            protocol="thermalizing",
            n_values=CLI_SWEEP_SIZES,
            trials_per_n=100 if tiny else CLI_SWEEP_TRIALS,
            master_seed=ms,
            epsilon=1.0,
            beta_true=1.0,
            estimator="jeffreys",
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def cli_cycle(seed: int, k: int, sweep_out: str, tiny: bool = False) -> list[list[str]]:
    """Argument lists of CLI cycle ``k``: stats, verify, dephasing, then a small sweep."""
    rnd = random.Random(master_seed("cli-cold", seed, k))
    plan = campaign_plan("cli-cold", seed, k, tiny)
    return [
        ["stats", "--epsilon", "1.0", "--beta", repr(rnd.uniform(0.1, 3.0)), "--n", str(rnd.randint(1, 1000))],
        ["verify"],
        [
            "dephasing",
            "--bath-m", str(rnd.randint(4, 16)),
            "--theta", repr(rnd.uniform(0.01, 0.3)),
            "--n", str(rnd.randint(1, 4)),
            "--beta-true", repr(rnd.uniform(0.2, 2.0)),
        ],
        [
            "sweep",
            "--protocol", "thermalizing",
            "--n-values", ",".join(str(n) for n in plan.n_values),
            "--trials", str(plan.trials_per_n),
            "--beta-true", "1.0",
            "--seed", str(plan.master_seed),
            "--out", sweep_out,
        ],
    ]
