#!/usr/bin/env python3
"""thermoscale benchmark: acceptance-sized campaigns and CLI cold start.

Usage, from the repository root::

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

* ``thermal-sweep``, ``noon-sweep``, ``bath-floor``: the A4, A5 and A9
  campaigns (``collect_sweep_records`` + ``fit_from_records`` +
  ``write_results`` in CSV and JSONL; noon-sweep also computes A5's per-size
  phase spreads), run back to back in this process.
* ``cli-cold``: fresh ``python -m thermoscale`` processes run one at a time,
  cycling through ``stats``, ``verify``, ``dephasing`` and a small ``sweep``.

The load is a closed loop with one client: the next operation starts when the
previous one ends. An operation (``op``) is one campaign, or one CLI process.
Every campaign's master seed, and every CLI argument, derives from ``--seed``.
Each output is checked; an operation that raises, exits non-zero or breaks a
hard invariant counts as failed. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` spends part of the time untraced and the rest with the tracer
installed, and prints the per-layer metrics. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, provenance and the spans of one traced operation go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"

sys.path.insert(0, str(SRC))
try:
    if not (SRC / "thermoscale" / "__init__.py").is_file():
        raise ImportError("no package sources")
    import numpy as np

    import checks
    import plans
    import tracer
    from thermoscale import interferometry, rng, sweep
except ImportError as exc:
    sys.exit(f"perfbench: cannot import thermoscale from {SRC} ({exc}); run from a full checkout")

SETUP_REPEATS = 3  # fresh-process set-ups per run; setup_s is their median
IMPORT_REPEATS = 3  # fresh-process import profiles per traced run
UNTRACED_SHARE = 0.4  # share of a traced run spent on the untraced baseline of trace.overhead_frac
CHILD_TIMEOUT_S = 120

# Per-trial engine functions and the span names whose sums form the
# cross-protocol layers; a protocol that does not use a function contributes 0.
ENGINE = (
    "estimators.run_thermalizing_trials",
    "interferometry.run_noon_trials",
    "interferometry.run_sn_trials",
    "interferometry.noon_phase_estimates",
)
DRAW_SITES = (
    "estimators.run_thermalizing_trials",
    "interferometry.sample_interferometer_outcome",
    "interferometry.bath_excitation_draw",
)
INVERSIONS = ("estimators.estimate_beta_from_count", "interferometry.beta_from_port_fraction")
COUNTED = (
    "rng.generators",
    "estimators.estimate_beta_from_count",
    "thermal.invert_mean_fraction",
    "thermal.excitation_probability",
    "interferometry.sample_interferometer_outcome",
    "interferometry.bath_excitation_draw",
    "interferometry.beta_from_port_fraction",
    "oracle.enumerate_thermal",
)


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def run_child(cmd: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, float]:
    """Run one child process to completion: (wall seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, as (value, percentile).

    Below 20 samples that percentile would lie under the median, which is no
    tail (cli-cold makes about 15 cold starts a run), so the maximum is reported.
    """
    ordered = sorted(samples)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


class Run:
    """Everything one benchmark run measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
        self.workload, self.seed, self.seconds, self.trace, self.tiny = workload, seed, seconds, trace, tiny
        plan = plans.campaign_plan(workload, seed, 0, tiny)
        self.trials_per_op = len(plan.n_values) * plan.trials_per_n  # per campaign, or per CLI sweep
        self.attempted = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []  # untraced operations that succeeded
        self.failed_op_s: list[float] = []
        self.trial_op_s: list[float] = []  # the untraced operations that ran trials
        self.traced_op_s: list[float] = []
        self.layer_ops: list[tuple[str, dict]] = []  # (operation kind, tracer totals) per traced operation
        self.span_rows: list[list] = []
        self.setup_s: list[float] = []
        self.import_runs: list[dict[str, float]] = []
        self.peak_rss_mb = 0.0
        self.gates: list[tuple[bool, str]] = []
        self.valid_fracs: list[float] = []
        self.write_bytes: list[int] = []
        self.master_seeds: list[int] = []

    def fail(self, what: str, seconds: float) -> None:
        self.failures.append(what)
        self.failed_op_s.append(seconds)

    def schedule(self, min_traced: int):
        """Yield what to do next, ``probe``, ``op`` or ``traced``, until ``seconds`` have passed.

        An untraced run spreads its set-up probes evenly over the run, so that
        ``setup_s`` samples the host's speed across the whole run, and spends
        the rest on operations. A traced run profiles imports first, then runs
        its untraced baseline, then traces at least ``min_traced`` operations.
        """
        start = time.perf_counter()
        probes, wanted = 0, IMPORT_REPEATS if self.trace else SETUP_REPEATS
        ops = traced = 0
        while True:
            elapsed = time.perf_counter() - start
            if probes < wanted and (self.trace or elapsed >= probes * self.seconds / wanted):
                probes += 1
                yield "probe"
            elif elapsed >= self.seconds and ops and (traced >= min_traced or not self.trace):
                return
            elif self.trace and ops and elapsed >= self.seconds * UNTRACED_SHARE:
                traced += 1
                yield "traced"
            else:
                ops += 1
                yield "op"

    def probe(self) -> None:
        """Set-up probe (untraced run) or import profile (traced run), each in a fresh process."""
        self.attempted += 1
        if self.trace:
            cmd = [sys.executable, "-X", "importtime", "-c", "import thermoscale"]
        else:
            cmd = [sys.executable, str(HERE / "setup_probe.py"), self.workload, str(self.seed)]
        seconds, code, _ = run_child(cmd, WORK / "probe.out", WORK / "probe.err")
        if code != 0:
            self.fail(f"probe exited {code}: {(WORK / 'probe.err').read_text()[-300:]}", seconds)
        elif self.trace:
            self.import_runs.append(parse_importtime((WORK / "probe.err").read_text()))
        else:
            self.setup_s.append(seconds)

    # -- campaigns ------------------------------------------------------------

    def campaign_op(self, plan):
        """One timed campaign: records, fit, CSV and JSONL; noon-sweep adds A5's phase spreads."""
        records = sweep.collect_sweep_records(plan)
        fit = sweep.fit_from_records(records)
        with open(WORK / "campaign.csv", "w", newline="") as handle:
            sweep.write_results(records, fit, "csv", handle)
        with open(WORK / "campaign.jsonl", "w", newline="") as handle:
            sweep.write_results(records, fit, "jsonl", handle)
        ratios = None
        if self.workload == "noon-sweep":
            ratios = []
            for j, n in enumerate(plan.n_values):
                phases = interferometry.noon_phase_estimates(
                    plan.bath, n, plan.repetitions, plan.trials_per_n, plan.bath_mode,
                    rng.RngStream(plan.master_seed, j),
                )
                ratios.append(float(np.std(phases, ddof=1)) * n * math.sqrt(plan.repetitions))
        return records, fit, ratios

    def run_campaigns(self) -> None:
        # untimed warm-up of campaign 0; its CSV is the reference for the rerun check
        self.campaign_op(plans.campaign_plan(self.workload, self.seed, 0, self.tiny))
        reference_csv = (WORK / "campaign.csv").read_bytes()
        spans = tracer.Tracer()
        k = 0
        for action in self.schedule(min_traced=1):
            if action == "probe":
                self.probe()
                continue
            traced = action == "traced"
            plan = plans.campaign_plan(self.workload, self.seed, k, self.tiny)
            self.master_seeds.append(plan.master_seed)
            self.attempted += 1
            k += 1
            if traced:
                spans.reset()
                spans.keep_spans = not self.span_rows
                spans.install()
            t0 = time.perf_counter()
            try:
                records, fit, ratios = self.campaign_op(plan)
            except Exception as exc:  # a failed operation is counted, and the loop goes on
                self.fail(f"campaign {k - 1} raised {type(exc).__name__}: {exc}", time.perf_counter() - t0)
                continue
            finally:
                if traced:
                    spans.uninstall()
            seconds = time.perf_counter() - t0
            csv_bytes = (WORK / "campaign.csv").read_bytes()
            problems = checks.campaign_problems(plan, csv_bytes.decode(), str(WORK / "campaign.jsonl"), records, fit)
            if k == 1 and csv_bytes != reference_csv:
                problems.append("rerun of campaign 0 gave different CSV bytes")
            if problems:
                self.fail(f"campaign {k - 1}: " + "; ".join(problems), seconds)
                continue
            self.gates.append(checks.gate(self.workload, records, fit, ratios))
            self.valid_fracs.append(1.0 - statistics.fmean(r.invalid_fraction for r in records))
            self.write_bytes.append(len(csv_bytes) + (WORK / "campaign.jsonl").stat().st_size)
            if traced:
                self.traced_op_s.append(seconds)
                self.layer_ops.append(("campaign", spans.totals()))
                self.span_rows = self.span_rows or spans.span_rows()
                spans.spans.clear()
            else:
                self.op_s.append(seconds)
                self.trial_op_s.append(seconds)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- CLI cold start -------------------------------------------------------

    def run_cli(self) -> None:
        """Operation ``j`` is command ``j % 4`` of CLI cycle ``j // 4``; a traced run traces one cycle or more."""
        j = 0
        for action in self.schedule(min_traced=4):
            if action == "probe":
                self.probe()
                continue
            cycle = j // 4
            if j % 4 == 0:
                self.master_seeds.append(plans.master_seed("cli-cold", self.seed, cycle))
            argv = plans.cli_cycle(self.seed, cycle, str(WORK / "cli-sweep.csv"), self.tiny)[j % 4]
            self.cli_op(argv, cycle, action == "traced")
            j += 1

    def cli_op(self, argv: list[str], cycle: int, traced: bool) -> None:
        """One fresh CLI process, timed from spawn to exit, then checked."""
        self.attempted += 1
        if traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(WORK / "cli-trace.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "thermoscale", *argv]
        seconds, code, rss = run_child(cmd, WORK / "cli.out", WORK / "cli.err")
        stdout, stderr = (WORK / "cli.out").read_text(), (WORK / "cli.err").read_text()
        problems = checks.cli_problems(argv, code, stdout, stderr)
        if not problems and argv[0] == "sweep":
            plan = plans.campaign_plan("cli-cold", self.seed, cycle, self.tiny)
            records = sweep.collect_sweep_records(plan)
            fit = sweep.fit_from_records(records)
            with open(WORK / "cli-reference.jsonl", "w", newline="") as handle:
                sweep.write_results(records, fit, "jsonl", handle)
            csv_text = (WORK / "cli-sweep.csv").read_text()
            problems = checks.campaign_problems(plan, csv_text, str(WORK / "cli-reference.jsonl"), records, fit)
            reference = io.StringIO(newline="")
            sweep.write_results(records, fit, "csv", reference)
            if csv_text != reference.getvalue():
                problems.append("CLI CSV differs from an in-process rerun of the same plan")
            if not problems:
                self.valid_fracs.append(1.0 - statistics.fmean(r.invalid_fraction for r in records))
                self.write_bytes.append(len(csv_text))
        if problems:
            self.fail(f"cycle {cycle} {argv[0]}: " + "; ".join(problems), seconds)
            return
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if not traced:
            self.op_s.append(seconds)
            if argv[0] == "sweep":
                self.trial_op_s.append(seconds)
            return
        self.traced_op_s.append(seconds)
        with open(WORK / "cli-trace.json") as handle:
            child = json.load(handle)
        self.layer_ops.append((argv[0], child["totals"]))
        if len(self.layer_ops) <= 4:  # keep the spans of the first traced cycle; ids restart in every process
            base = len(self.span_rows)
            self.span_rows.extend([sid + base, name, parent and parent + base, start, end]
                                  for sid, name, parent, start, end in child["spans"])

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> tuple[dict[str, dict], dict[str, dict]]:
        """Bounded metrics, and the ones printed but left unbounded because they spread too much."""
        samples = self.op_s or self.failed_op_s  # failed ones only when nothing succeeded
        tail_value, self.tail_pct = tail(samples)
        p75 = statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]
        bounded = {
            "setup_s": metric(statistics.median(self.setup_s or self.failed_op_s), "s"),
            "op_s.p75": metric(p75, "s"),
            "peak_rss_mb": metric(self.peak_rss_mb, "MB"),
        }
        unbounded = {
            "op_s.p50": metric(statistics.median(samples), "s"),
            "op_s.tail": metric(tail_value, "s"),
            "trials_per_s": metric(self.trials_per_op / statistics.median(self.trial_op_s or samples), "1/s"),
        }
        return bounded, unbounded

    def _per_op(self, names, field: int) -> float:
        """Sum of ``field`` over span ``names``, as the median per operation kind, summed over kinds.

        A campaign workload has one kind; on cli-cold the kinds are the four
        commands, so the result is per CLI cycle.
        """
        kinds: dict[str, list[float]] = {}
        for kind, totals in self.layer_ops:
            kinds.setdefault(kind, []).append(sum(totals.get(n, (0, 0.0, 0.0))[field] for n in names))
        return sum(statistics.median(values) for values in kinds.values())

    def functions(self) -> dict[str, list[float]]:
        """Calls, inclusive and self seconds of every span name, per operation (or CLI cycle)."""
        names = sorted({name for _, totals in self.layer_ops for name in totals})
        return {name: [self._per_op([name], field) for field in range(3)] for name in names}

    def per_layer(self) -> dict[str, dict]:
        metrics = {}
        for key in ("numpy_s", "scipy_s", "thermoscale_s"):
            metrics[f"import.{key}"] = metric(statistics.median(r[key] for r in self.import_runs or [{key: 0.0}]), "s")
        for name in COUNTED:
            metrics[f"{name}.calls"] = metric(round(self._per_op([name], 0)), "count")
        metrics["rng.position_s"] = metric(self._per_op(["rng.generators"], 1), "s")
        metrics["thermal.excitation_probability.s"] = metric(self._per_op(["thermal.excitation_probability"], 1), "s")
        metrics["trials.s"] = metric(self._per_op(ENGINE, 1), "s")
        metrics["trials.draw_self_s"] = metric(self._per_op(DRAW_SITES, 2), "s")
        metrics["trials.invert_s"] = metric(self._per_op(INVERSIONS, 1), "s")
        metrics["sweep.fit_power_law.s"] = metric(self._per_op(["sweep.fit_power_law"], 1), "s")
        metrics["sweep.write_results.s"] = metric(self._per_op(["sweep.write_results"], 1), "s")
        metrics["sweep.write_results.bytes"] = metric(round(statistics.median(self.write_bytes or [0])), "bytes")
        metrics["sweep.valid_frac"] = metric(statistics.fmean(self.valid_fracs or [0.0]), "ratio")
        overhead = 0.0
        if self.op_s and self.traced_op_s:
            overhead = statistics.median(self.traced_op_s) / statistics.median(self.op_s) - 1.0
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        return metrics


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_importtime(text: str) -> dict[str, float]:
    """Self time summed by package, from ``python -X importtime -c 'import thermoscale'``.

    ``thermoscale_s`` is the rest of the ``import thermoscale`` total: the
    package's own modules plus whatever standard library they pull in.
    """
    own = {"numpy": 0, "scipy": 0}
    total = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        top = name.strip().split(".")[0]
        if top in own:
            own[top] += int(self_us)
        if name == " thermoscale":  # the top-level entry: no indentation
            total = int(cumulative_us)
    return {
        "numpy_s": own["numpy"] * 1e-6,
        "scipy_s": own["scipy"] * 1e-6,
        "thermoscale_s": (total - own["numpy"] - own["scipy"]) * 1e-6,
    }


def git_sha() -> str | None:
    """Commit of the checkout when it is a git work tree, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(run: Run) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "thermoscale").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    plan = plans.campaign_plan(run.workload, run.seed, 0, run.tiny)
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "plan": dataclasses.asdict(plan) | {"master_seed": "per campaign, see master_seeds"},
        "master_seeds": run.master_seeds,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the full report; ``tiny`` shrinks trial budgets for the self-test."""
    WORK.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, seconds, trace, tiny)
    if workload == "cli-cold":
        run.run_cli()
    else:
        run.run_campaigns()
    report = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "gate_miss_frac": (sum(not ok for ok, _ in run.gates) / len(run.gates)) if run.gates else None,
        "gates": [detail for _, detail in run.gates],
        "op_samples_s": run.op_s,
        "setup_samples_s": run.setup_s,
        "provenance": provenance(run),
    }
    if trace:
        report["metrics"] = run.per_layer()
        report["functions"] = run.functions()
        report["per"] = "cycle of 4 CLI processes" if workload == "cli-cold" else "campaign"
        report["trials_per_op"] = run.trials_per_op
        report["traced_ops"] = len(run.layer_ops)
        report["spans"] = run.span_rows
    else:
        report["metrics"], report["unbounded"] = run.end_to_end()
        report["tail_percentile"] = run.tail_pct
    return report


def print_report(report: dict) -> None:
    prov = report["provenance"]
    name = prov["workload"]
    print(f"workload={name} seed={prov['seed']} seconds={prov['seconds']} trace={prov['trace']}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"failed_frac = {failed_frac:.4g} ({report['failed']}/{report['attempted']} operations)")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    if report["gate_miss_frac"] is None:
        print("gate_miss_frac = n/a (no acceptance campaign in this workload)")
    else:
        misses = round(report["gate_miss_frac"] * len(report["gates"]))
        print(f"gate_miss_frac = {report['gate_miss_frac']:.4g} ({misses}/{len(report['gates'])} campaigns)")
        print(f"  last gate: {report['gates'][-1]}")
    if prov["trace"]:
        per = f"per {report['per']} ({report['trials_per_op']} trials), median of {report['traced_ops']} traced"
        print(f"per-layer metrics, {per}:")
        for key, m in report["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print(f"function spans, {per}: calls, calls/trial, inclusive s, self s")
        for fn, (calls, total, own) in report["functions"].items():
            print(f"  {fn:48s} {calls:10.0f} {calls / report['trials_per_op']:9.4f} {total:11.6f} {own:11.6f}")
    else:
        op = "cli_s" if name == "cli-cold" else "campaign_s"
        n = len(report["op_samples_s"])
        notes = {
            "setup_s": f"median of {len(report['setup_samples_s'])} fresh set-ups",
            "op_s.p75": f"{op}.p75 of n={n}",
            "op_s.p50": f"{op}.p50 of n={n}; printed, not bounded",
            "op_s.tail": f"{op}.tail = p{report['tail_percentile']:.1f} of n={n}; printed, not bounded",
            "trials_per_s": "printed, not bounded",
            "peak_rss_mb": "largest CLI process" if name == "cli-cold" else "benchmark process",
        }
        for key, m in (report["metrics"] | report["unbounded"]).items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}  ({notes[key]})")
    print("provenance: " + json.dumps({k: v for k, v in prov.items() if k != "master_seeds"}, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(report.pop("spans"), str(OUT / f"{stem}-spans.csv"))
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    print_report(report)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: report[key] for key in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
