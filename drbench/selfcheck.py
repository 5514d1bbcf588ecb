"""Quick self-check of the benchmark harness, on sub-second jobs.

    python3 drbench/selfcheck.py

Shows, on a handful of tiny jobs from three workloads:

1. every metric named in BENCHMARK.json is emitted with its unit, by
   the untraced and by the traced run;
2. tracing does not change stdout: the traced run reports no failure,
   and one pass run both ways prints the same bytes;
3. a deliberately wrong expected answer raises fail_frac;
4. in a directory that holds only BENCHMARK.json and drbench/, the
   benchmark exits non-zero without printing a result.

Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import subprocess
import sys

import run

TINY = {
    "stages": lambda ident: ident.startswith(("cartier-fat", "ideal-", "tower-")),
    "divergence": lambda ident: ident in (
        "reiffen-quartic-D5", "reiffen-quartic-D8", "reiffen-quartic-D200-cap"
    ),
    "witness": lambda ident: ident == "witness-n1-g128",
}


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _metrics(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_metrics_and_tracing():
    end_to_end, per_layer = _declared()
    for workload, select in TINY.items():
        _, plain = run.measure(workload, 3, 0.1, 0, select)
        summary, traced = run.measure(workload, 3, 0.1, 1, select)
        if _metrics(plain) != end_to_end:
            return f"{workload}: untraced metrics differ from BENCHMARK.json"
        if _metrics(traced) != per_layer:
            return f"{workload}: traced metrics differ from BENCHMARK.json"
        for result in (plain, traced):
            if not result["correct"]:
                return f"{workload}: {summary['failures']}"
    return None


def check_traced_bytes():
    import bench_jobs
    import bench_trace
    import drcalc.cli as cli

    files, jobs = bench_jobs.build("stages", 5)
    jobs = [job for job in jobs if TINY["stages"](job.ident)]
    directory = run.WORK / f"selfcheck-{os.getpid()}"
    bench_jobs.write_inputs(files, str(directory))
    tracer = bench_trace.Tracer()
    os.chdir(directory)
    try:
        _, plain = run.run_pass(cli, jobs)
        tracer.install()
        try:
            _, traced = run.run_pass(cli, jobs)
        finally:
            tracer.uninstall()
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(directory, ignore_errors=True)
    if [r[:3] for r in plain] != [r[:3] for r in traced]:
        return "traced stdout differs"
    if tracer.stats["cli.main"].calls != len(jobs):
        return "cli.main was not traced"
    return None


def check_wrong_answer_counts():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = copy.deepcopy(json.load(fh)["stages"])
    ident = "cartier-fat-k1"
    golden["outputs"][ident] = golden["outputs"][ident].replace(
        "verdict=equal", "verdict=mismatch"
    )
    summary, result = run.measure("stages", 0, 0.1, 0, TINY["stages"], golden)
    if not (result["failed"] > 0 and summary["fail_frac"] > 0):
        return "a wrong golden answer did not raise fail_frac"
    if result["correct"]:
        return "a wrong golden answer still reads correct"
    return None


def check_bare_directory():
    bare = run.WORK / f"bare-{os.getpid()}"
    shutil.copytree(run.BENCH, bare / "drbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "drbench/run.py", "--workload", "witness",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return "a directory without sources still produced a result"
    return None


def main():
    sys.path.insert(0, str(run.SRC))
    failures = 0
    for check in (
        check_metrics_and_tracing,
        check_traced_bytes,
        check_wrong_answer_counts,
        check_bare_directory,
    ):
        problem = check()
        failures += problem is not None
        print(f"{check.__name__}: {'ok' if problem is None else problem}")
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
