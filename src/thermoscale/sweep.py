"""Campaign orchestration: ensemble-size sweeps, scaling fits, and result files.

A :class:`SweepPlan` pins a protocol, the swept ensemble sizes, the trial
budget and a master seed. Running it produces one :class:`SweepRecord` per
size (empirical spread of the beta estimates, the matching closed-form
prediction, and bookkeeping) and an ordinary least-squares fit of
``log(sigma)`` against ``log(n)`` whose slope is the measured scaling
exponent. Records and fit serialize to CSV (canonical, for plotting) and
JSONL (same content, for machine ingestion); identical plans produce
byte-identical files.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence, TextIO

from .estimators import ESTIMATORS, check_mode, run_thermalizing_trials
from .interferometry import (
    BATH_MODES,
    BathSpec,
    _offer_noon_phases,
    _run_points,
    require_phase_window,
    sigma_beta_h_theory,
    sigma_beta_sn_theory,
)
from .rng import _SUBSTREAM_STRIDE, RngStream, _at_least, _real
from .thermal import (
    DegenerateSensitivityError,
    TwoLevelSpec,
    excitation_probability,
    shot_noise_sigma_beta,
    thermal_summary,
)

PROTOCOLS = ("thermalizing", "sn", "noon")
MIN_FIT_POINTS = 4


class SweepConfigError(ValueError):
    """The sweep plan is internally inconsistent or incomplete."""


class SweepAbortError(RuntimeError):
    """A sweep point produced fewer than two valid trials; carries the offending size."""

    def __init__(self, n: int, message: str):
        super().__init__(message)
        self.n = n


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point: empirical spread, theory prediction, and bookkeeping."""

    n: int
    sigma_beta_empirical: float
    sigma_beta_theory: float
    invalid_fraction: float
    trials: int


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit of spread against size on log-log axes."""

    slope: float
    intercept: float
    stderr_slope: float
    r_squared: float
    points: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class SweepPlan:
    """One campaign: a protocol, the sizes to sweep, budgets, and a seed.

    ``epsilon`` and ``beta_true`` drive the thermalizing protocol directly;
    the interferometric protocols take them from ``bath``. ``repetitions`` is
    the per-trial shot count of the entangled protocol. ``estimator`` is
    ``"jeffreys"`` or ``"raw"`` (see
    :func:`~thermoscale.estimators.estimate_beta_from_count`) and
    ``bath_mode`` is ``"fixed_m"`` or ``"sampled_m"`` (see
    :func:`~thermoscale.interferometry.run_interferometer_trials`).
    """

    protocol: str
    n_values: tuple[int, ...]
    trials_per_n: int
    master_seed: int
    epsilon: float = 1.0
    beta_true: Optional[float] = None
    estimator: str = "jeffreys"
    bath: Optional[BathSpec] = None
    bath_mode: str = "fixed_m"
    repetitions: int = 2

    def validate(self) -> None:
        """Check every protocol invariant before any trial runs."""
        if self.protocol not in PROTOCOLS:
            raise SweepConfigError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}")
        values = tuple(_checked(_at_least, "each of n_values", n) for n in self.n_values)
        if len(values) < MIN_FIT_POINTS:
            raise SweepConfigError(
                f"need at least {MIN_FIT_POINTS} sweep sizes for a fit, got {len(values)}"
            )
        if any(b <= a for a, b in zip(values, values[1:])):
            raise SweepConfigError(f"n_values must be strictly increasing, got {values}")
        _checked(RngStream, self.master_seed)  # a 64-bit unsigned integer
        # one substream per trial, and a stream has 2**32 of them
        if _checked(_at_least, "trials_per_n", self.trials_per_n, 2) > _SUBSTREAM_STRIDE:
            raise SweepConfigError(f"trials_per_n must lie in [2, 2**32], got {self.trials_per_n}")
        _checked(check_mode, "estimator", self.estimator, ESTIMATORS)
        _checked(check_mode, "bath_mode", self.bath_mode, BATH_MODES)
        if self.protocol == "thermalizing":
            _checked(_real, "beta_true", self.beta_true, False)  # refuses None too
            _checked(_real, "epsilon", self.epsilon)
        else:
            if self.bath is None:
                raise SweepConfigError(f"{self.protocol} sweep needs a bath specification")
            if self.protocol == "noon":
                _checked(_at_least, "repetitions", self.repetitions, 2)
            # phase window must hold at the largest swept size
            require_phase_window(self.bath, max(values) if self.protocol == "noon" else 1)


def _checked(check, *args):
    """``check(*args)``, its ValueError raised as a SweepConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise SweepConfigError(str(exc)) from None


def _record(n: int, theory: float, betas) -> SweepRecord:
    """Point ``n``'s record: its valid (non-NaN) beta estimates give the spread; fewer than two abort."""
    import numpy as np

    valid = betas[~np.isnan(betas)]
    invalid = len(betas) - len(valid)
    if len(valid) < 2:
        raise SweepAbortError(n, f"sweep point n={n} yielded {invalid}/{len(betas)} invalid trials")
    return SweepRecord(
        n=n,
        sigma_beta_empirical=float(valid.std(ddof=1)),
        sigma_beta_theory=theory,
        invalid_fraction=invalid / len(betas),
        trials=len(betas),
    )


def collect_sweep_records(plan: SweepPlan) -> list[SweepRecord]:
    """Run every sweep point and return its record, in plan order.

    Point ``j`` draws from stream ``(master_seed, j)`` with one substream per
    trial, so the records are a pure function of the plan. Every point's theory
    comes first, so a configuration without a temperature response fails before
    any trial runs; an interferometric plan then runs all its points in one
    engine call. A point with fewer than two valid trials aborts the sweep with
    :class:`SweepAbortError`, naming the first such size.
    """
    plan.validate()
    bath, trials, mode, estimator = plan.bath, plan.trials_per_n, plan.bath_mode, plan.estimator
    streams = [RngStream(plan.master_seed, j) for j in range(len(plan.n_values))]
    # each record is built as soon as its point's estimates arrive, so an abort stops the sweep there
    if plan.protocol == "thermalizing":
        specs = [TwoLevelSpec(n_atoms=n, epsilon=plan.epsilon) for n in plan.n_values]
        theories = [shot_noise_sigma_beta(spec, plan.beta_true) for spec in specs]
        return [_record(n, theory, run_thermalizing_trials(spec, plan.beta_true, trials, estimator, s))
                for n, theory, spec, s in zip(plan.n_values, theories, specs, streams)]
    if plan.protocol == "sn":
        theories = [sigma_beta_sn_theory(bath, n) for n in plan.n_values]
        points = [(1, n, s) for n, s in zip(plan.n_values, streams)]
    else:
        theories = [sigma_beta_h_theory(bath, n) / math.sqrt(plan.repetitions) for n in plan.n_values]
        points = [(n, plan.repetitions, s) for n, s in zip(plan.n_values, streams)]
    records, results = [], _run_points(bath, points, trials, mode, estimator)
    for n, theory, (n_atoms, shots, s), (phases, betas) in zip(plan.n_values, theories, points, results):
        if plan.protocol == "noon":  # noon_phase_estimates of this point takes them
            _offer_noon_phases(phases, bath, n_atoms, shots, trials, mode, s, estimator)
        records.append(_record(n, theory, betas))
    return records


def fit_power_law(points: Sequence[tuple[int, float]]) -> ScalingFit:
    """OLS fit of ``log(sigma)`` on ``log(n)``; refuses fewer than 4 points."""
    import numpy as np

    if len(points) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} points to fit, got {len(points)}")
    points = [(_at_least("each n", n), _real("each sigma", s)) for n, s in points]
    if len({n for n, _ in points}) < 2:
        raise ValueError(f"need at least two distinct sizes to fit a slope, got only n={points[0][0]}")
    log_n = [math.log(n) for n, _ in points]
    log_s = [math.log(s) for _, s in points]
    # ordinary least squares; the slope error uses the correlation clipped to [-1, 1]
    ssxm, ssxym, _, ssym = np.cov(log_n, log_s, bias=1).flat
    slope = float(ssxym / ssxm)
    intercept = float(np.mean(log_s) - slope * np.mean(log_n))
    if ssym == 0.0:
        # a flat response is fitted exactly, not an undefined correlation
        stderr_slope, r_squared = 0.0, 1.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
        stderr_slope = float(np.sqrt((1 - r**2) * ssym / ssxm / (len(points) - 2)))
        # residual-based r^2
        mean_log_s = sum(log_s) / len(log_s)
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(log_n, log_s))
        ss_tot = sum((y - mean_log_s) ** 2 for y in log_s)
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(
        slope=slope,
        intercept=intercept,
        stderr_slope=stderr_slope,
        r_squared=r_squared,
        points=tuple(points),
    )


def fit_from_records(records: Sequence[SweepRecord]) -> ScalingFit:
    return fit_power_law([(r.n, r.sigma_beta_empirical) for r in records])


def bath_intrinsic_sigma(m_atoms: int, epsilon: float, beta: float) -> float:
    """Spread to which a bath of ``m_atoms`` defines its own inverse temperature.

    The bath's energy fluctuates thermally, so beta inherits the spread of an
    ``m_atoms``-fold two-level ensemble: ``1 / sqrt(m_atoms * eps_prime)``.
    No thermometer reading of this bath is meaningful beyond that floor.
    """
    return shot_noise_sigma_beta(TwoLevelSpec(n_atoms=m_atoms, epsilon=epsilon), beta)


def matched_thermometer_size(m_atoms: int, regime: str) -> int:
    """Smallest thermometer whose precision reaches the bath's intrinsic floor.

    A shot-noise-limited thermometer must match the bath atom for atom; an
    entangled (1/N) thermometer only needs the square root of the bath size.
    """
    m_atoms = _at_least("m_atoms", m_atoms)
    if regime == "shot_noise":
        return m_atoms
    if regime == "heisenberg":
        root = math.isqrt(m_atoms)
        return root if root * root == m_atoms else root + 1
    raise ValueError(f"regime must be 'shot_noise' or 'heisenberg', got {regime!r}")


def fig1_curves(epsilon: float, beta_grid: Iterable[float]) -> list[tuple[float, float, float]]:
    """Rows ``(beta*epsilon, eps_bar/epsilon, sqrt(N)*sigma_beta*epsilon)`` for plotting.

    Both outputs are dimensionless functions of ``x = beta * epsilon``: the
    per-atom energy fraction ``p`` and the size-scaled spread
    ``1 / sqrt(p * (1 - p))``, which bottoms out at 2 when ``x = 0``.
    """
    betas = list(beta_grid)
    if not betas:
        raise ValueError("beta_grid must be nonempty")
    rows = []
    for beta in betas:
        p = excitation_probability(epsilon, beta)
        summary = thermal_summary(TwoLevelSpec(1, epsilon), beta)
        if summary.eps_prime == 0.0:
            raise DegenerateSensitivityError(f"eps_prime underflowed to zero at beta={beta}; no response")
        scaled_sigma = epsilon / math.sqrt(summary.eps_prime)
        rows.append((beta * epsilon, p, scaled_sigma))
    return rows


# ---------------------------------------------------------------------------
# result files

_RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))
# the fit's scalars; its points are the records themselves
_FIT_FIELDS = tuple(f.name for f in fields(ScalingFit) if f.name != "points")
_CSV_FIT_FIELDS = ("slope", "stderr_slope", "r_squared")
# the reader's check of each record field, against what a sweep writes there
_RECORD_CHECKS = {"n": (_at_least, 1), "trials": (_at_least, 2), "invalid_fraction": (_real, False),
                  "sigma_beta_empirical": (_real, False), "sigma_beta_theory": (_real, True)}

CSV_HEADER = ",".join(_RECORD_FIELDS)


def format_float(x: float) -> str:
    """Fixed emission format: 17 significant digits, enough to round-trip a double."""
    return format(float(x), ".17g")


def _cells(row, names: Sequence[str], label: str) -> list[tuple[str, str]]:
    """``(name, text)`` of each named field; refuses NaN and infinities, which
    neither format can carry."""
    cells = []
    for name in names:
        value = getattr(row, name)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"{label}: {name} is {value}; result files hold finite numbers only")
            value = format_float(value)
        cells.append((name, str(value)))
    return cells


def _json_object(cells: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f'"{name}": {text}' for name, text in cells) + "}"


def write_results(
    records: Sequence[SweepRecord],
    fit: Optional[ScalingFit],
    fmt: str,
    out: TextIO,
) -> None:
    """Write sweep records (and the fit summary, when given) to an open text sink.

    Columns and keys are the fields of :class:`SweepRecord`, in order. Refuses
    NaN and infinities before writing anything.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    rows = [_cells(r, _RECORD_FIELDS, f"record n={r.n}") for r in records]
    fit_cells = None if fit is None else _cells(fit, _FIT_FIELDS, "fit")
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(text for _, text in row) for row in rows]
        if fit_cells is not None:
            lines.append(",".join(["#fit"] + [text for name, text in fit_cells if name in _CSV_FIT_FIELDS]))
    else:
        lines = [_json_object(row) for row in rows]
        if fit_cells is not None:
            lines.append('{"fit": ' + _json_object(fit_cells) + "}")
    out.write("".join(line + "\n" for line in lines))


def emit_results(
    records: Sequence[SweepRecord],
    fit: Optional[ScalingFit],
    fmt: str,
    destination: str,
) -> None:
    """Write results to ``destination``; identical inputs yield identical bytes.

    The output is rendered before the file is opened, so a refused write
    (a non-finite value, an unknown format) leaves ``destination`` untouched.
    """
    text = io.StringIO()
    write_results(records, fit, fmt, text)
    try:
        with open(destination, "w", newline="") as handle:
            handle.write(text.getvalue())
    except OSError as exc:
        raise OSError(f"cannot write results to {destination!r}: {exc}") from exc


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a finite number; result files hold finite numbers only")


def read_jsonl_results(path: str) -> tuple[list[SweepRecord], Optional[ScalingFit]]:
    """Parse a JSONL results file back into records and the fit, if present.

    What :func:`write_results` never writes (a ``NaN`` or ``Infinity`` token, a missing
    field, malformed JSON, a string or bool where a number belongs, a count or spread
    out of range, any line after the fit line) raises a ValueError naming ``path:line``."""
    records: list[SweepRecord] = []
    fit = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if fit is not None:
                    raise ValueError("a line after the fit line; the fit is written once, last")
                obj = json.loads(line, parse_constant=_refuse_constant)
                source, names = (obj["fit"], _FIT_FIELDS) if "fit" in obj else (obj, _RECORD_FIELDS)
                values = {k: source[k] for k in names}
                if not all(type(x) is int or type(x) is float and math.isfinite(x) for x in values.values()):
                    raise ValueError(f"result values must be finite JSON numbers, got {values}")
                if names is _FIT_FIELDS:
                    points = tuple((r.n, r.sigma_beta_empirical) for r in records)
                    fit = ScalingFit(**values, points=points)
                else:
                    values = {k: check(k, values[k], arg) for k, (check, arg) in _RECORD_CHECKS.items()}
                    if values["invalid_fraction"] > 1.0:
                        raise ValueError(f"invalid_fraction must be at most 1, got {obj['invalid_fraction']}")
                    records.append(SweepRecord(**values))
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: a line that is no JSON object
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}:{lineno}: {reason}") from None
    return records, fit
