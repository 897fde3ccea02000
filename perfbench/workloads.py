"""Inputs of the nsnf benchmark workloads.

`prepare(workload, seed, work_dir)` writes every instance file a workload
needs into `work_dir` (or, for `shipped`, reads the committed files) and
returns its jobs.  A job is one call of the `nsnf` command line with the
exit code it must return.  The program only ever sees the instance files.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("ladder", "shipped", "corpus")
CORPUS_SIZE = 50
# Fewer samples would hide some of the evaluator's early-stop failures.
CORPUS_SAMPLES = 300
MANIFEST = "jobs.json"
# reference.json holds digests for the inputs of workload seeds 0 .. 63
# (ladder seeds 0-63, corpus instance seeds 0-112); any other seed is
# folded into that range, so every rational job is checked.
RECORDED_SEEDS = 64
# One random instance takes from 0.05 s to 6 s, so which 50 seeds a corpus
# pass covers sets its time: from 0.54x to 1.26x the median over the 64
# recorded starts.  The corpus starts at seed mod CORPUS_STARTS, where the
# passes agree within 3%; instance seed 56, the second heaviest, first
# enters at start 7.
CORPUS_STARTS = 4


class SourceMissing(RuntimeError):
    """The checkout holds no nsnf sources to benchmark."""


class LadderError(RuntimeError):
    """A generated rung does not match its table entry or fails validation."""


def import_nsnf():
    """Import nsnf from this checkout's src/ and nowhere else."""
    init = SRC / "nsnf" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no nsnf sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nsnf
    import nsnf.cli

    if Path(nsnf.__file__).resolve() != init.resolve():
        raise SourceMissing(f"nsnf imported from {nsnf.__file__}, not {init}")
    return nsnf


@dataclass(frozen=True)
class Job:
    name: str  # workload/<rung, instance seed or file>[/mode]
    argv: tuple[str, ...]  # command-line arguments, without --timings/--out
    mode: str  # scalar mode the command runs in
    expected: int  # exit code the job must return
    ref: str | None = None  # reference-digest key (rational jobs)
    twin: str | None = None  # rational job whose H and P a float job must match


def ladder_rungs() -> list[dict]:
    with open(HERE / "ladder.json") as fh:
        return json.load(fh)["rungs"]


def ladder_instance(rung: dict, seed: int) -> dict:
    """One rung of the size ladder, drawn from `seed`; validated or refused."""
    from nsnf.base import Extension, FiniteBase, validate_extension
    from nsnf.instance import instance_json
    from nsnf.polymap import RATIONAL, GradedDims, PolyMap
    from nsnf.spectrum import SpectrumSpec, criticality, spectral_constants

    name, p, n_taylor = rung["name"], rung["p"], rung["n_taylor"]
    dims = GradedDims(rung["dims"])
    n = dims.total
    chi = [Fraction(c) for c in rung["chi"]]
    probe = SpectrumSpec(chi, Fraction(1, 10**6))
    epsilon = min(
        spectral_constants(probe).eps0, criticality(probe, n_taylor, 0).eps_bound
    ) / 2
    if epsilon != Fraction(rung["epsilon"]):
        raise LadderError(f"rung {name}: epsilon {epsilon} differs from the table")
    spec = SpectrumSpec(chi, epsilon)
    rates = [Fraction(math.exp(c)).limit_denominator(1000) for c in rung["chi"]]

    # Where the nonlinear terms sit is fixed per rung, so a rung's work does
    # not change with the seed; their values are drawn from the seed.
    shape = random.Random(f"ladder-shape:{name}")
    values = random.Random(f"ladder:{seed}:{name}")
    fibers = []
    for _ in range(p):
        coeffs: dict = {}
        for c in range(n):
            exps = [0] * n
            exps[c] = 1
            coeffs[(c, tuple(exps))] = rates[dims.block_of[c]]
        for _ in range(3 * n):
            exps = [0] * n
            for j in shape.choices(range(n), k=shape.choice((2, 3))):
                exps[j] += 1
            key = (shape.randrange(n), tuple(exps))
            value = Fraction(values.choice((-2, -1, 1, 2)), 64)
            coeffs[key] = coeffs.get(key, 0) + value
        fibers.append(PolyMap(dims, dims, 3, RATIONAL, coeffs))
    base = FiniteBase([(x + 1) % p for x in range(p)])
    ext = Extension(base, dims, fibers, sigma=0.25, xi=0.95, mode=RATIONAL)
    report = validate_extension(ext, spec, n_taylor, 0)
    if not report.passed:
        failed = ", ".join(c.name for c in report.failures())
        raise LadderError(f"rung {name} at seed {seed} fails validation: {failed}")
    return instance_json(spec, ext, n_taylor, 0)


def _save(raw: dict, path: Path) -> None:
    from nsnf.instance import save_instance

    save_instance(raw, str(path))


def _ladder(seed: int, work_dir: Path) -> list[Job]:
    jobs = []
    for rung in ladder_rungs():
        path = work_dir / f"ladder_{rung['name']}.json"
        _save(ladder_instance(rung, seed), path)
        rational = f"ladder/{rung['name']}/rational"
        jobs.append(
            Job(rational, ("reduce", str(path)), "rational", 0, ref=f"ladder/{seed}/{rung['name']}")
        )
        jobs.append(
            Job(
                f"ladder/{rung['name']}/float",
                ("reduce", str(path), "--mode", "float"),
                "float",
                0,
                twin=rational,
            )
        )
    return jobs


def _shipped(work_dir: Path) -> list[Job]:
    jobs = []
    for path in sorted((ROOT / "instances").glob("*.json")):
        with open(path) as fh:
            mode = json.load(fh)["mode"]
        expected = 4 if path.name == "noncommuting.json" else 0
        ref = f"shipped/{path.name}" if mode == "rational" else None
        jobs.append(Job(f"shipped/{path.name}", ("all", str(path)), mode, expected, ref=ref))
    return jobs


def corpus_instance(s: int) -> dict:
    from nsnf.instance import instance_json
    from nsnf.rand_instances import random_instance

    ri = random_instance(s)
    return instance_json(
        ri.spec, ri.ext, ri.n_taylor, ri.alpha, options={"samples": CORPUS_SAMPLES}
    )


def corpus_jobs(seeds: range, work_dir: Path) -> list[Job]:
    jobs = []
    for s in seeds:
        path = work_dir / f"corpus_{s}.json"
        _save(corpus_instance(s), path)
        jobs.append(Job(f"corpus/{s}", ("all", str(path)), "rational", 0, ref=f"corpus/{s}"))
    return jobs


def input_seed(workload: str, seed: int) -> int:
    """The recorded seed whose inputs a workload seed runs."""
    return seed % (CORPUS_STARTS if workload == "corpus" else RECORDED_SEEDS)


def prepare(workload: str, seed: int, work_dir: Path) -> list[Job]:
    """Write the workload's inputs for `seed` and its job manifest into work_dir."""
    work_dir.mkdir(parents=True, exist_ok=True)
    seed = input_seed(workload, seed)
    if workload == "ladder":
        jobs = _ladder(seed, work_dir)
    elif workload == "shipped":
        jobs = _shipped(work_dir)
    elif workload == "corpus":
        jobs = corpus_jobs(range(seed, seed + CORPUS_SIZE), work_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(work_dir / MANIFEST, "w") as fh:
        json.dump([asdict(j) for j in jobs], fh)
    return jobs


def load_jobs(work_dir: Path) -> list[Job]:
    with open(work_dir / MANIFEST) as fh:
        return [Job(**{**j, "argv": tuple(j["argv"])}) for j in json.load(fh)]


if __name__ == "__main__":
    # Child entry for set-up timing: python3 workloads.py WORKLOAD SEED DIR
    import_nsnf()
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
