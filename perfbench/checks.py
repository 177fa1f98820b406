"""Output checks: hard invariants (counted as failures) and acceptance gates.

A hard invariant is something the program must never break on any seed: a
finite value in every result field, the planned trial count, the closed-form
theory column, a lossless JSONL round trip, byte-identical reruns, and for the
CLI a zero exit code, a clean ``verify`` and ``stats`` equal to
``thermal_summary``. A gate is one of the statistical acceptance criteria A4,
A5 and A9; missing it is reported as ``gate_miss_frac``, not as a failure.
"""

from __future__ import annotations

import json
import math

from thermoscale import interferometry, sweep, thermal

# theory values are emitted with 17 significant digits, which round-trip a
# double; the tolerance only admits a reordered evaluation of the same formula
THEORY_RTOL = 1e-12


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite JSON token {token}")


def theory_sigma(plan, n: int) -> float:
    """Closed-form spread of one sweep point, recomputed independently of the sweep."""
    if plan.protocol == "thermalizing":
        return thermal.shot_noise_sigma_beta(thermal.TwoLevelSpec(n, plan.epsilon), plan.beta_true)
    if plan.protocol == "sn":
        return interferometry.sigma_beta_sn_theory(plan.bath, n)
    return interferometry.sigma_beta_h_theory(plan.bath, n) / math.sqrt(plan.repetitions)


def parse_csv(text: str) -> tuple[list[tuple[int, float, float, float, int]], tuple[float, ...]]:
    """Records and ``(slope, stderr, r2)`` from a result CSV; raises on malformed or non-finite fields."""
    lines = text.splitlines()
    if not lines or lines[0] != sweep.CSV_HEADER:
        raise ValueError("CSV header missing or changed")
    rows, fit = [], None
    for line in lines[1:]:
        fields = line.split(",")
        if fields[0] == "#fit":
            fit = tuple(float(x) for x in fields[1:])
            values = fit
        else:
            n, emp, theo, invalid, trials = fields
            values = (float(emp), float(theo), float(invalid))
            rows.append((int(n), *values, int(trials)))
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in CSV line {line!r}")
    if fit is None or len(fit) != 3:
        raise ValueError("CSV fit line missing")
    return rows, fit


def campaign_problems(plan, csv_text: str, jsonl_path: str, records, fit) -> list[str]:
    """Every hard invariant a campaign's CSV and JSONL break; empty when all hold."""
    try:
        rows, csv_fit = parse_csv(csv_text)
        with open(jsonl_path) as handle:
            for line in handle:
                json.loads(line, parse_constant=_reject_constant)
        back_records, back_fit = sweep.read_jsonl_results(jsonl_path)
    except (ValueError, KeyError, OSError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if [r[0] for r in rows] != list(plan.n_values):
        problems.append(f"sizes {[r[0] for r in rows]} differ from the plan")
    if any(r[4] != plan.trials_per_n for r in rows):
        problems.append(f"trial counts {[r[4] for r in rows]} differ from the plan's {plan.trials_per_n}")
    for n, _, theory, _, _ in rows:
        expected = theory_sigma(plan, n)
        if abs(theory - expected) > THEORY_RTOL * abs(expected):
            problems.append(f"n={n}: sigma_beta_theory {theory!r} != closed form {expected!r}")
    if rows != [(r.n, r.sigma_beta_empirical, r.sigma_beta_theory, r.invalid_fraction, r.trials) for r in records]:
        problems.append("CSV records differ from the in-memory records")
    if back_records != list(records):
        problems.append("JSONL records do not round-trip to the in-memory records")
    if back_fit is None or (back_fit.slope, back_fit.intercept, back_fit.stderr_slope, back_fit.r_squared) != (
        fit.slope, fit.intercept, fit.stderr_slope, fit.r_squared
    ):
        problems.append("JSONL fit does not round-trip")
    if csv_fit != (fit.slope, fit.stderr_slope, fit.r_squared):
        problems.append("CSV fit line differs from the fit")
    return problems


def gate(workload: str, records, fit, phase_ratios=None) -> tuple[bool, str]:
    """Whether a campaign meets its acceptance criterion (A4, A5 or A9), with the numbers."""
    if workload == "thermal-sweep":
        ok = -0.55 <= fit.slope <= -0.45 and fit.r_squared > 0.99
        return ok, f"A4 slope {fit.slope:.4f}, r2 {fit.r_squared:.5f}"
    if workload == "noon-sweep":
        ok = -1.08 <= fit.slope <= -0.92 and all(0.95 <= r <= 1.25 for r in phase_ratios)
        ratios = "/".join(f"{r:.2f}" for r in phase_ratios)
        return ok, f"A5 slope {fit.slope:.4f}, phase-spread ratios {ratios}"
    if workload == "bath-floor":
        spreads = [r.sigma_beta_empirical for r in records]
        floor = sweep.bath_intrinsic_sigma(100, 1.0, 1.0)
        ok = 0.5 <= spreads[-1] / floor <= 2.0 and spreads[-1] < 1.2 * spreads[-2]
        return ok, f"A9 last/floor {spreads[-1] / floor:.3f}, last/prev {spreads[-1] / spreads[-2]:.3f}"
    raise ValueError(f"no acceptance gate for {workload!r}")


def cli_problems(argv: list[str], returncode: int, stdout: str, stderr: str) -> list[str]:
    """Hard invariants of one CLI invocation, judged from its exit code and output."""
    if returncode != 0:
        return [f"{argv[0]} exited {returncode}: {stderr.strip()[-300:]}"]
    command = argv[0]
    lines = stdout.splitlines()
    if command == "verify":
        if not lines or any(line.startswith("FAIL") for line in lines):
            return [f"verify reported: {stdout.strip()}"]
        return []
    flags = dict(zip(argv[1::2], argv[2::2]))
    values = dict(line.split("=", 1) for line in lines if "=" in line)
    if command == "stats":
        summary = thermal.thermal_summary(
            thermal.TwoLevelSpec(int(flags["--n"]), float(flags["--epsilon"])), float(flags["--beta"])
        )
        expected = {
            name: sweep.format_float(getattr(summary, name))
            for name in ("log_z", "mean_energy", "energy_variance", "eps_bar", "eps_prime", "fisher_info")
        }
        return [] if values == expected else [f"stats printed {values}, thermal_summary gives {expected}"]
    if command == "dephasing":
        bath = interferometry.BathSpec(
            m_atoms=int(flags["--bath-m"]),
            epsilon=1.0,
            beta_true=float(flags["--beta-true"]),
            alpha=float(flags["--theta"]),
            tau=1.0,
        )
        closed = sweep.format_float(interferometry.dephasing_visibility(bath, int(flags["--n"])))
        oracle = float(values.get("visibility_oracle", "nan"))
        if values.get("visibility_closed_form") != closed or not abs(oracle - float(closed)) <= 1e-12:
            return [f"dephasing printed {values}, closed form gives {closed}"]
        return []
    if command == "sweep":
        return []  # the caller checks the CSV it wrote
    raise ValueError(f"no check for CLI command {command!r}")
