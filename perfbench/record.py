"""Record reference digests of the benchmark's rational reports.

    python3 perfbench/record.py

Run it from the root of a checkout, at the commit whose outputs the
references describe.  It rewrites perfbench/reference.json with the digests
of each exact report section of every shipped rational file, of every
ladder rung for ladder seeds 0-63, and of corpus instance seeds 0-112: the
inputs of every workload seed the benchmark runs.  The jobs run through the
same runner, with the same arguments, as in a benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import CORPUS_SIZE, RECORDED_SEEDS, ROOT, corpus_jobs, import_nsnf, prepare

import checks
from run import Runner


def main() -> int:
    import_nsnf()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        jobs = prepare("shipped", 0, work)
        for seed in range(RECORDED_SEEDS):
            jobs += prepare("ladder", seed, work / f"ladder{seed}")
        jobs += corpus_jobs(range(RECORDED_SEEDS + CORPUS_SIZE - 1), work)
        runner = Runner([job for job in jobs if job.ref is not None], work, reference=None)
        result = runner.run_pass()
    if result.wrong:
        for name, _, actual, problem in result.failures:
            if problem is not None:
                print(f"{name}: exit {actual}: {problem}", file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    checks.record_reference(runner.recorded, commit or "unknown")
    print(f"recorded {len(runner.recorded)} jobs at {commit or 'unknown'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
