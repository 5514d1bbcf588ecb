"""Workload benchmark for drcalc.

Run from the repository root:

    python3 drbench/run.py --workload stages --seed 0 --seconds 28 --trace 0

Each workload is a fixed list of ``drcalc`` command lines (see
``bench_jobs``), run in this process through ``drcalc.cli.main`` with
stdout captured, so argument parsing and report formatting count.  The
load is a closed loop: one client, one job at a time, one thread.
Passes over the job list repeat until ``--seconds`` would be exceeded;
every job's output is checked (``bench_checks``) after each pass,
outside the timed region.  A failed check counts against ``failed`` and
never stops the run.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median over fresh interpreters of the time from start to
               the first job being ready (import drcalc.cli, write the
               inputs)
  wall_s       mean wall time of one pass
  job_max_s    mean over passes of the slowest job in the pass
  peak_rss_mb  peak resident memory of this process

Pass times are averaged, not taken as a median: the shared hosts this
was tuned on switch between a fast and a slow state for tens of seconds
at a time, and the median of a few passes jumps between the two states
where the mean moves with the share of time spent in each.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from ``bench_trace`` (per traced pass), plus
``trace.overhead_s``, the traced minus the untraced mean pass time.
A traced job whose stdout or stderr differs from the untraced one
counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment, the per-pass times and any failure reasons.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".drbench_work"
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """{metric: unit} for every per-layer metric, in report order."""
    units = {}
    for span in (
        "cli.main", "elim.rank", "elim.solve",
        "homology.truncate", "homology.d2check", "homology.cohomology",
        "homology.stability", "homology.morphism", "homology.chainmap",
        "derham.conerve", "derham.cartier", "derham.graded", "derham.wedge",
        "dg.check", "reiffen.system",
        "reiffen.feasible", "reiffen.stalk", "groebner.gb", "groebner.nf",
        "witness.tau", "witness.bound",
    ):
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for name in (
        "elim.rank.cells", "elim.rank.nnz", "elim.solve.cells",
        "elim.solve.nnz", "homology.truncate.basis", "homology.truncate.nnz",
        "homology.morphism.nnz", "derham.conerve.basis",
        "reiffen.system.unknowns", "reiffen.system.rows",
    ):
        units[name] = "count"
    units["elim.rank.yield"] = "ratio"
    units["witness.tau.zero_frac"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.count_s"] = "s"
    units["trace.accounted_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# running jobs


def run_job(cli, job):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not a failed run
            code = "raised"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def run_pass(cli, jobs):
    """(pass wall seconds, [(code, stdout, stderr, seconds)] per job)."""
    start = perf_counter()
    results = [run_job(cli, job) for job in jobs]
    return perf_counter() - start, results


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, job, result, reason=None):
        code, out, err, _ = result
        self.attempted += 1
        reason = reason or self.checker.check(job, code, out, err)
        if reason:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{job.ident}: {reason}")


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(workload, seed):
    """Child side: import, write the inputs, report ready, clean up."""
    import drcalc.cli  # noqa: F401  (the import is what is timed)
    import bench_jobs

    directory = WORK / f"probe-{os.getpid()}"
    files, jobs = bench_jobs.build(workload, seed)
    bench_jobs.write_inputs(files, str(directory))
    print(f"ready {len(jobs)}", flush=True)
    shutil.rmtree(directory, ignore_errors=True)
    return 0


def measure_setup(workload, seed, count):
    """Start-to-ready seconds of ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed with exit {code}")
    return times


# ---------------------------------------------------------------------------
# environment record


def environment():
    import mpmath

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "drcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _untraced(cli, jobs, tally, seconds):
    walls, maxes = [], []
    job_times = {job.ident: [] for job in jobs}
    start = perf_counter()
    while True:
        wall, results = run_pass(cli, jobs)
        walls.append(wall)
        maxes.append(max(r[3] for r in results))
        for job, result in zip(jobs, results):
            tally.add(job, result)
            job_times[job.ident].append(result[3])
        if perf_counter() - start + statistics.median(walls) > seconds:
            return walls, maxes, job_times


def _traced(cli, jobs, tally, seconds):
    import bench_trace

    tracer = bench_trace.Tracer()
    plain, traced, accounted = [], [], []
    start = perf_counter()
    while True:
        wall, base = run_pass(cli, jobs)
        plain.append(wall)
        for job, result in zip(jobs, base):
            tally.add(job, result)
        before = tracer.spans_total()
        tracer.install()
        try:
            wall, results = run_pass(cli, jobs)
        finally:
            tracer.uninstall()
        traced.append(wall)
        accounted.append((tracer.spans_total() - before) / wall)
        for job, result, ref in zip(jobs, results, base):
            same = result[:3] == ref[:3]
            tally.add(job, result, None if same else "traced output differs")
        elapsed = perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    passes = len(traced)
    metrics = {}
    for name, stats in tracer.stats.items():
        metrics[f"{name}.calls"] = stats.calls / passes
        metrics[f"{name}.self_s"] = stats.self_s / passes
        for key, value in stats.counts.items():
            metrics[f"{name}.{key}"] = value / passes
    rank = tracer.stats["elim.rank"].counts
    metrics["elim.rank.yield"] = (
        rank["rank_sum"] / rank["min_dim_sum"] if rank.get("min_dim_sum") else 0.0
    )
    tau = tracer.stats["witness.tau"]
    metrics["witness.tau.zero_frac"] = (
        tau.counts["zero"] / tau.calls if tau.calls else 0.0
    )
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    metrics["trace.count_s"] = tracer.count_s / passes
    metrics["trace.accounted_frac"] = min(accounted)
    info = {
        "untraced_walls": plain,
        "traced_walls": traced,
        "absent_spans": tracer.absent,
    }
    return metrics, info


def measure(workload, seed, seconds, trace, select=None, golden=None):
    """Run one workload; returns (summary record, result object).

    ``select`` keeps only the jobs whose ident it accepts and ``golden``
    replaces the recorded golden outputs; the self-check uses both.
    """
    import bench_checks
    import bench_jobs

    setup = [] if trace else measure_setup(workload, seed, SETUP_PROBES)
    import drcalc.cli as cli

    files, jobs = bench_jobs.build(workload, seed)
    if select is not None:
        jobs = [job for job in jobs if select(job.ident)]
    if golden is None:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[workload]
    tally = Tally(bench_checks.Checker(seed, golden))
    directory = WORK / f"{workload}-{os.getpid()}"
    bench_jobs.write_inputs(files, str(directory))
    try:
        os.chdir(directory)
        if trace:
            metrics, info = _traced(cli, jobs, tally, seconds)
            units = per_layer_units()
        else:
            walls, maxes, job_times = _untraced(cli, jobs, tally, seconds)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.fmean(walls),
                "job_max_s": statistics.fmean(maxes),
                "peak_rss_mb": rss,
            }
            info = {
                "setup_times": setup,
                "walls": walls,
                "job_max": maxes,
                "job_times": job_times,
            }
            units = END_TO_END
    finally:
        os.chdir(ROOT)
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": len(jobs),
        "fail_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "env": environment(),
        **info,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    return summary, result


def main(argv=None):
    import bench_jobs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "drcalc" / "cli.py").is_file():
        print(f"error: no drcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One client on one CPU: pin to the last allowed CPU so the run is
    # never migrated; on small VMs the first CPU also takes interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    summary, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
