#!/usr/bin/env python3
"""Fingerprint every report of the check set, for comparing two checkouts.

    python scripts/check_set.py OUT

The check set is 124 jobs of the `nsnf` command line, run in this process:
the 7 shipped instance files and corpus instance seeds 0-49 through
`nsnf all`, and the 5 ladder rungs of seed 0 through `nsnf reduce`, each
in its own scalar mode and with `--mode float`.  The corpus and ladder
inputs are those of the benchmark (`perfbench/workloads.py`).  OUT gets
one line per job: its name, its exit code, and the SHA-256 of its standard
error and of its report.  Reports carry no timings, so two checkouts that
compute the same thing write the same OUT, whatever the hash seed:

    python scripts/check_set.py a.txt        # in one checkout
    python scripts/check_set.py b.txt        # in the other
    diff a.txt b.txt

`check_set_exit_codes.txt`, next to this script, pins the name and exit
code of every job; CI compares it with `cut -d' ' -f1,2 OUT`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench/workloads.py, imported by path; it puts this checkout's
    src/ first on sys.path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.import_nsnf()
    return module


def check_jobs(work_dir: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every job; instance files are written to work_dir."""
    workloads = _workloads()
    jobs = [(j.name, j.argv) for j in workloads.prepare("ladder", 0, work_dir / "ladder")]
    for workload in ("shipped", "corpus"):
        for job in workloads.prepare(workload, 0, work_dir / workload):
            jobs.append((job.name, job.argv))
            jobs.append((f"{job.name}/float", job.argv + ("--mode", "float")))
    return jobs


def run_job(argv) -> tuple[int, bytes, bytes]:
    """Exit code, standard error and report of one in-process `nsnf` call."""
    from nsnf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue().encode(), out.getvalue().encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="file to write one line per job to")
    args = ap.parse_args()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in check_jobs(Path(tmp)):
            code, err, report = run_job(argv)
            digests = [hashlib.sha256(b).hexdigest() for b in (err, report)]
            lines.append(" ".join([name, str(code), *digests]))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} jobs written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
