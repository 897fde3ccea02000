"""Run one nsnf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {ladder,shipped,corpus} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every job is one call of nsnf.cli.main
with --timings --out, made in this process by one client in a closed loop:
a job starts when the previous one returns.  A pass runs every job of the
workload once; passes repeat while the next one would end less than half a
pass after S seconds, and timings are medians over passes.  Set-up runs
several times, each in a fresh interpreter.  End-to-end timings are scaled
to a reference machine speed measured between jobs (see speed.py).  With
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import HERE, ROOT, WORKLOADS, SourceMissing, import_nsnf, input_seed, load_jobs

import checks
import speed
from tracing import COUNT, TARGETS, Tracer

SETUP_REPS = 5


@dataclass
class PassResult:
    stages: dict = field(default_factory=dict)  # e.g. build_rational -> seconds
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)  # latencies at the reference speed
    kernel_s: list = field(default_factory=list)  # speed samples, s per kernel call
    failures: list = field(default_factory=list)  # (job, expected, actual, problem)
    wrong: int = 0  # jobs whose output failed a check
    h_terms: int = 0  # over the rational reports
    max_coeff_bits: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


class Runner:
    """Runs the jobs and checks their reports.

    With `reference` None it checks no digests and records them in
    `recorded` instead.
    """

    def __init__(self, jobs, work_dir: Path, reference: dict[str, dict[str, str]] | None):
        import nsnf.cli

        self.cli_main = nsnf.cli.main
        self.jobs = jobs
        self.out = work_dir / "report.json"
        self.reference = reference
        self.recorded: dict[str, dict[str, str]] = {}
        self.twins = {job.twin for job in jobs if job.twin is not None}

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        result = PassResult()
        builds: dict = {}  # rational twin -> its build section
        before = speed.sample(speed.MIN_WINDOW_S)
        result.kernel_s.append(before)
        for job in self.jobs:
            self.out.unlink(missing_ok=True)
            gc.collect()
            if tracer is not None:
                tracer.job += 1  # one id per job run, shared by its spans
            argv = list(job.argv) + ["--timings", "--out", str(self.out)]
            problem = None
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = self.cli_main(argv)
                except Exception:  # a crash is a failed job, not a failed run
                    code, problem = "crash", traceback.format_exc(limit=3)
                elapsed = time.perf_counter() - start
            after = speed.sample(speed.window_after(elapsed))
            result.kernel_s.append(after)
            result.latencies.append(elapsed)
            result.scaled.append(speed.scaled(elapsed, before, after))
            before = after
            if problem is None:
                problem = self._check(job, result, builds)
            if problem is not None:
                result.wrong += 1
            if problem is not None or code != job.expected:
                result.failures.append((job.name, job.expected, code, problem))
        return result

    def _check(self, job, result: PassResult, builds: dict) -> str | None:
        """Check one job's report and take its stage timings; returns the
        problem found, if any."""
        if not self.out.is_file():
            return "no report written"
        with open(self.out) as fh:
            report = json.load(fh)
        for stage, seconds in report["timings"].items():
            key = f"build_{job.mode}" if stage == "build" else stage
            result.stages[key] = result.stages.get(key, 0.0) + seconds
        if job.ref is not None:
            terms, bits = checks.coefficient_stats(report)
            result.h_terms += terms
            result.max_coeff_bits = max(result.max_coeff_bits, bits)
            if job.name in self.twins:
                builds[job.name] = report.get("build")
            if self.reference is None:
                self.recorded[job.ref] = checks.section_digests(report)
            elif job.ref not in self.reference:
                return f"no reference digests for {job.ref}"
            else:
                problem = checks.compare_sections(report, self.reference[job.ref])
                if problem is not None:
                    return problem
        if job.twin is not None:
            twin = builds.pop(job.twin, None)
            if twin is None or "build" not in report:
                return f"no build to compare with {job.twin}"
            gap = checks.twin_gap(twin, report["build"])
            if not gap <= checks.FLOAT_TOL:
                return f"H and P differ from {job.twin} by {gap:.3e} relative"
        return None


# -- measurement --------------------------------------------------------


def time_setup(workload: str, seed: int, work_dir: Path, reps: int) -> list[float]:
    """Time of a fresh interpreter importing nsnf and preparing inputs, at
    the reference speed."""
    command = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(work_dir)]
    times = []
    before = speed.sample(speed.MIN_WINDOW_S)
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        after = speed.sample(speed.window_after(elapsed))
        times.append(speed.scaled(elapsed, before, after))
        before = after
    return times


def repeat(step, budget: float) -> list:
    """Results of whole steps, repeated while the next would end less than
    half a step after `budget` seconds.  Half a step of overshoot lets a
    step of just over half the budget run twice."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        spent = time.perf_counter() - start
        if spent + spent / len(results) / 2 > budget:
            return results


def traced_pair(runner: Runner, tracer: Tracer) -> tuple[PassResult, PassResult, dict]:
    """An untraced pass, then a traced one, so both see the same machine."""
    untraced = runner.run_pass()
    tracer.install()
    try:
        traced = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer.take_stats()


def percentile_line(values: list[float]) -> str:
    """Median and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    line = f"median {statistics.median(values):.6g}"
    if n > 10:
        rank = n - 11
        line += f", p{100 * (rank + 1) // n} {sorted(values)[rank]:.6g}"
    else:
        line += ", no percentile with 10 samples beyond it"
    return f"{line} (n={n})"


def median_of(passes: list[PassResult], key: str) -> float:
    return statistics.median(p.stages.get(key, 0.0) for p in passes)


# -- metrics ------------------------------------------------------------


def end_to_end(setup_times, passes: list[PassResult], attempted: int, failed: int) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.scaled_wall for p in passes), "s"),
        "ok_frac": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def per_layer(pairs: list[tuple[PassResult, PassResult, dict]]) -> dict:
    untraced = [u for u, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    layer_stats = [s for _, _, s in pairs]

    def med(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in layer_stats)

    metrics = {
        f"stage.{key}_s": (median_of(untraced, key), "s")
        for key in ("build_rational", "build_float", "reduce", "eval", "verify")
    }
    for module_name, attr, kind in TARGETS:
        name = f"{module_name}.{attr}"
        metrics[f"{name}.calls"] = (int(med(name + ".calls")), "count")
        if kind != COUNT:
            metrics[f"{name}.s"] = (med(name + ".s"), "s")
            metrics[f"{name}.self_s"] = (med(name + ".self_s"), "s")
    passed = med("polymap.homogeneous_part.passed")
    kept = med("polymap.homogeneous_part.kept")
    samples = med("evaluator.residual_samples")
    eval_h = med("evaluator.Evaluator.eval_h.calls")
    metrics.update(
        {
            "polymap.PolyMap.constructed": (int(med("polymap.PolyMap.__init__.calls")), "count"),
            "polymap.homogeneous_part.kept_frac": (kept / passed if passed else 1.0, "1"),
            "evaluator.iterations": (int(med("evaluator.iterations")), "count"),
            "evaluator.eval_h_per_sample": (eval_h / samples if samples else 0.0, "calls/sample"),
            "normal_form.h_terms": (traced[-1].h_terms, "count"),
            "normal_form.max_coeff_bits": (traced[-1].max_coeff_bits, "bits"),
            "trace.overhead_frac": (statistics.median(t.scaled_wall / u.scaled_wall for u, t, _ in pairs) - 1.0, "1"),
        }
    )
    return metrics


def selected(metrics: dict, kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)[kind]]
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names}


# -- output -------------------------------------------------------------


def print_summary(args, passes: list[PassResult], setup_times, metrics: dict) -> None:
    import numpy

    print(
        f"nsnf benchmark: workload={args.workload} seed={args.seed} "
        f"(inputs of recorded seed {input_seed(args.workload, args.seed)}) trace={args.trace} "
        f"passes={len(passes)} jobs/pass={len(passes[0].latencies)} "
        f"python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()}"
    )
    print(f"  setup_s: {percentile_line(setup_times)}")
    print(f"  pass wall_s at the reference speed: {percentile_line([p.scaled_wall for p in passes])}")
    print(f"  pass wall_s as measured: {percentile_line([p.wall for p in passes])}")
    print(f"  job latency s at the reference speed: {percentile_line([t for p in passes for t in p.scaled])}")
    kernel_s = [k for p in passes for k in p.kernel_s]
    print(f"  speed kernel s/call (reference {speed.REFERENCE_S}): {percentile_line(kernel_s)}")
    stage_keys = sorted({k for p in passes for k in p.stages})
    print("  stage s per pass (medians): " + ", ".join(f"{k}={median_of(passes, k):.6g}" for k in stage_keys))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    failures = Counter(f for p in passes for f in p.failures)
    print(f"  failed jobs: {len(failures)}")
    for (name, expected, actual, problem), count in sorted(failures.items()):
        detail = f" ({problem.strip().splitlines()[-1]})" if problem else ""
        print(f"    {name}: expected exit {expected}, got {actual} in {count}/{len(passes)} passes{detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nsnf benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_nsnf()
    except SourceMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = time_setup(args.workload, args.seed, work_dir, 1 if args.trace else SETUP_REPS)
        runner = Runner(load_jobs(work_dir), work_dir, checks.load_reference())
        if args.trace:
            tracer = Tracer()
            pairs = repeat(lambda: traced_pair(runner, tracer), args.seconds)
            passes = [p for u, t, _ in pairs for p in (u, t)]
            metrics = per_layer(pairs)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}.json")
        else:
            passes = repeat(runner.run_pass, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace:
        metrics = selected(metrics, "per_layer")
    else:
        metrics = selected(end_to_end(setup_times, passes, attempted, failed), "end_to_end")
    print_summary(args, passes, setup_times, metrics)
    result = {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
