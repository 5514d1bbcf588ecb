"""Record the seed-0 golden outputs the checkers compare against.

    python3 drbench/record_golden.py

Runs every workload's seed-0 job list once and writes the stdout of
each job whose output is pinned (``bench_checks.GOLDEN_KINDS``) to
``drbench/golden.json``.  Re-record only when a change deliberately
alters those outputs, and say so where the change is described.

For each ``amitsur-compare`` case the degrees of its trusted range
where the de Rham side is weight-stable are recorded too: the checker
requires ``verdict=equal`` exactly there.  The CLI does not print
those flags, and ``amitsur_vs_derham`` does not use them.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run


def _stable_degrees(job):
    from drcalc.derham import derham_stage
    from drcalc.dg import koszul_presentation
    from drcalc.poly import Poly

    f = job.info["f"]
    pres = koszul_presentation(f.variables, [Poly(f.variables, f.terms)], 1)
    report = derham_stage(pres, job.info["hodge"], job.info["weight"]).report()
    # a degree absent at both W and W+1 has dimension 0 at both
    return [
        n for n in range(job.info["pmax"] - 1)
        if report.is_stable(n) is not False
    ]


def main():
    sys.path.insert(0, str(run.SRC))
    import bench_checks
    import bench_jobs
    import drcalc.cli as cli

    golden = {}
    for workload in bench_jobs.WORKLOADS:
        files, jobs = bench_jobs.build(workload, 0)
        directory = run.WORK / f"golden-{os.getpid()}"
        bench_jobs.write_inputs(files, str(directory))
        os.chdir(directory)
        try:
            _, results = run.run_pass(cli, jobs)
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(directory, ignore_errors=True)
        outputs, stable = {}, {}
        for job, (code, out, err, _) in zip(jobs, results):
            if job.kind not in bench_checks.GOLDEN_KINDS:
                continue
            if code != job.expect_exit:
                raise SystemExit(f"{job.ident}: exit {code}: {err}")
            if job.kind == "amitsur":
                stable[job.ident] = _stable_degrees(job)
            outputs[job.ident] = out
        golden[workload] = {"outputs": outputs, "stable_degrees": stable}
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
