"""Command-line front end.

Subcommands: ``stats`` (closed-form summary), ``fig1`` (scaled-uncertainty
curves), ``sweep`` (Monte Carlo scaling campaigns), ``verify`` (brute-force
oracle equivalence suite) and ``dephasing`` (fringe visibility under bath
resampling). Every flag may also be supplied through a plain ``key = value``
config file via ``--config``; explicit flags override the file.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
(including a missing numpy, which only ``sweep`` needs), 3 sweep aborted
(a point with fewer than two valid trials, or a zero spread), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from typing import Optional, Sequence

from . import oracle
from .estimators import ESTIMATORS
from .interferometry import BathSpec, dephasing_visibility, noon_outcome_probability
from .rng import _at_least, _real
from .sweep import (
    PROTOCOLS,
    SweepAbortError,
    SweepPlan,
    collect_sweep_records,
    fig1_curves,
    fit_from_records,
    format_float,
    write_results,
)
from .thermal import TwoLevelSpec, thermal_summary

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SWEEP_ABORTED = 3
EXIT_IO = 4


def _build_parser(config: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoscale",
        description="Precision scaling of two-level-ensemble thermometers.",
        parents=[config],  # only so that --help lists --config: _merge_config has taken it out of argv
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="closed-form thermal summary as key=value lines")
    stats.set_defaults(run=_cmd_stats)
    stats.add_argument("--epsilon", type=float, required=True)
    stats.add_argument("--beta", type=float, required=True)
    stats.add_argument("--n", type=int, default=1)

    fig1 = sub.add_parser("fig1", help="scaled-uncertainty curve table as CSV")
    fig1.set_defaults(run=_cmd_fig1)
    fig1.add_argument("--epsilon", type=float, required=True)
    fig1.add_argument("--beta-max", type=float, required=True)
    fig1.add_argument("--points", type=int, required=True)
    fig1.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="run a scaling campaign and write records")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("--protocol", choices=PROTOCOLS, required=True)
    sweep.add_argument("--n-values", required=True, help="comma-separated sizes, e.g. 16,32,64,128")
    sweep.add_argument("--trials", type=int, required=True)
    sweep.add_argument("--reps", type=int, default=2, help="shots per trial (noon protocol)")
    sweep.add_argument("--epsilon", type=float, default=1.0)
    sweep.add_argument("--beta-true", type=float, default=None)
    sweep.add_argument("--bath-m", type=int, default=None)
    sweep.add_argument("--alpha", type=float, default=None)
    sweep.add_argument("--tau", type=float, default=None)
    sweep.add_argument("--bath-mode", choices=["fixed", "sampled"], default="fixed")
    sweep.add_argument("--estimator", choices=ESTIMATORS, default="jeffreys")
    sweep.add_argument("--seed", type=int, required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    verify = sub.add_parser("verify", help="run the brute-force oracle equivalence suite")
    verify.set_defaults(run=_cmd_verify)

    deph = sub.add_parser("dephasing", help="fringe visibility under per-shot bath resampling")
    deph.set_defaults(run=_cmd_dephasing)
    deph.add_argument("--bath-m", type=int, required=True)
    deph.add_argument("--theta", type=float, required=True)
    deph.add_argument("--n", type=int, required=True)
    deph.add_argument("--beta-true", type=float, required=True)
    deph.add_argument("--epsilon", type=float, default=1.0)

    return parser


def _load_config_flags(path: str) -> list[str]:
    """Turn each ``key = value`` line into the token ``--key=value``; a line starting with ``#`` is a comment."""
    flags: list[str] = []
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")  # one token: a flag that takes no value refuses it
    return flags


def _merge_config(argv: list[str], config: argparse.ArgumentParser) -> list[str]:
    """Insert config-file flags right after the subcommand, wherever ``--config`` stood, so CLI flags win;
    a file's own ``config`` line becomes a flag that no subcommand knows, a usage error."""
    known, rest = config.parse_known_args(argv)
    if known.config is None:
        return argv
    if not rest:  # no subcommand to read the file for: the full parser reports it missing
        return rest
    return rest[:1] + _load_config_flags(known.config) + rest[1:]


def _write(path: str, text: str) -> None:
    """Write an output file from its already-rendered text, so a refused run leaves an existing file
    untouched; a failure names the path (exit 4)."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def _cmd_stats(args: argparse.Namespace) -> int:
    summary = thermal_summary(TwoLevelSpec(n_atoms=args.n, epsilon=args.epsilon), args.beta)
    for name, value in vars(summary).items():
        print(f"{name}={format_float(value)}")
    return EXIT_OK


def _cmd_fig1(args: argparse.Namespace) -> int:
    _at_least("--points", args.points)
    _real("--beta-max", args.beta_max, positive=False)
    grid = [args.beta_max * i / max(args.points - 1, 1) for i in range(args.points)]
    lines = ["beta_eps,eps_bar_over_eps,sqrt_n_sigma_beta_eps"]
    lines += [",".join(map(format_float, row)) for row in fig1_curves(args.epsilon, grid)]
    _write(args.out, "".join(line + "\n" for line in lines))
    return EXIT_OK


def _plan_from_args(args: argparse.Namespace) -> SweepPlan:
    try:
        n_values = tuple(int(part) for part in args.n_values.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse --n-values {args.n_values!r}: {exc}") from exc
    bath = None
    if args.protocol in ("sn", "noon"):
        missing = [
            flag
            for flag, value in (
                ("--bath-m", args.bath_m),
                ("--alpha", args.alpha),
                ("--tau", args.tau),
                ("--beta-true", args.beta_true),
            )
            if value is None
        ]
        if missing:
            raise ValueError(f"protocol {args.protocol!r} requires {', '.join(missing)}")
        bath = BathSpec(
            m_atoms=args.bath_m,
            epsilon=args.epsilon,
            beta_true=args.beta_true,
            alpha=args.alpha,
            tau=args.tau,
        )
    return SweepPlan(
        protocol=args.protocol,
        n_values=n_values,
        trials_per_n=args.trials,
        master_seed=args.seed,
        epsilon=args.epsilon,
        beta_true=args.beta_true,
        estimator=args.estimator,
        bath=bath,
        bath_mode="fixed_m" if args.bath_mode == "fixed" else "sampled_m",
        repetitions=args.reps,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    plan = _plan_from_args(args)
    records = collect_sweep_records(plan)
    fit = fit_from_records(records)
    text = io.StringIO()
    write_results(records, fit, args.format, text)
    _write(args.out, text.getvalue())
    print(
        f"protocol={plan.protocol} points={len(records)} "
        f"slope={format_float(fit.slope)} stderr={format_float(fit.stderr_slope)} "
        f"r2={format_float(fit.r_squared)} out={args.out}"
    )
    return EXIT_OK


def _within(name: str, what: str, error: float, tol: float) -> tuple[str, bool, str]:
    return name, error <= tol, f"{what} {error:.3g}, tol {tol:g}"


def _verify_checks() -> list[tuple[str, bool, str]]:
    """The one oracle suite: each row checks a brute-force oracle against the package's own closed form."""
    checks: list[tuple[str, bool, str]] = []

    worst = 0.0
    for n in range(1, 13):
        for x in (0.1, 1.0, 5.0):
            z, mean, var = oracle.enumerate_thermal(n, 1.0, x)
            summary = thermal_summary(TwoLevelSpec(n, 1.0), x)
            worst = max(
                worst,
                abs(math.log(z) - summary.log_z) / abs(summary.log_z),
                abs(mean - summary.mean_energy) / summary.mean_energy,
                abs(var - summary.energy_variance) / summary.energy_variance,
            )
    checks.append(_within("thermal enumeration vs closed forms", "max rel err", worst, 1e-12))

    worst = 0.0
    for n in range(1, 9):
        for lo in (0.05, 0.01):
            for k in range(20):
                phi = lo + k * (math.pi / n - 2.0 * lo) / 19.0
                p3, p4 = oracle.noon_probs_exact(n, phi)
                closed = noon_outcome_probability(n, phi)
                worst = max(worst, abs(p3 + p4 - 1.0), abs(p4 - closed), abs(p3 - (1.0 - closed)))
    checks.append(_within("interferometer state algebra vs fringe formulas", "max err", worst, 1e-10))

    exact = all(
        oracle.branch_phase(n, m, theta) == (n * m) * theta
        for n in range(0, 9)
        for m in range(0, 9)
        for theta in (0.1, 0.7, 2.9)
    )
    checks.append(("pairwise interaction phase vs product formula", exact, "exact equality, tol 0"))

    worst = 0.0
    for m_atoms in range(1, 17):
        for beta in (0.0, math.log(3.0), math.log(9.0)):  # p = 1/2, 1/4, 1/10
            for phase in (0.05, 0.1, 0.3, 0.7, 1.0, 2.5, 2.9):
                bath = BathSpec(m_atoms, 1.0, beta, phase, 1.0)
                direct = oracle.mixed_bath_visibility_exact(m_atoms, bath.excitation, phase)
                worst = max(worst, abs(direct - dephasing_visibility(bath, 1)))
    checks.append(_within("mixing visibility phasor sum vs closed form", "max err", worst, 1e-14))

    return checks


def _cmd_verify(_: argparse.Namespace) -> int:
    failures = 0
    for name, passed, detail in _verify_checks():
        marker = "ok  " if passed else "FAIL"
        print(f"{marker} {name} ({detail})")
        if not passed:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_dephasing(args: argparse.Namespace) -> int:
    bath = BathSpec(
        m_atoms=args.bath_m,
        epsilon=args.epsilon,
        beta_true=args.beta_true,
        alpha=args.theta,
        tau=1.0,
    )
    closed = dephasing_visibility(bath, args.n)
    print(f"visibility_closed_form={format_float(closed)}")
    if args.bath_m <= oracle.MAX_ENUM_ATOMS:
        direct = oracle.mixed_bath_visibility_exact(
            args.bath_m, bath.excitation, args.n * bath.theta
        )
        print(f"visibility_oracle={format_float(direct)}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the one reader of --config, wherever it stands: a --config without a path is its usage error
    config = argparse.ArgumentParser(prog="thermoscale", add_help=False)
    config.add_argument("--config", default=None, help="read flags from a 'key = value' file")
    parser = _build_parser(config)
    try:
        args = parser.parse_args(_merge_config(argv, config))
        return args.run(args)
    except ModuleNotFoundError as exc:
        # only the trial engines import numpy: without it a sweep cannot start,
        # which is a setup error (2), not a failed verification (1)
        if exc.name != "numpy":
            raise
        print(f"missing dependency: this command needs numpy ({exc})", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SweepAbortError as exc:
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_SWEEP_ABORTED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
