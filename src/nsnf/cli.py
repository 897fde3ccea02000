"""Command-line pipeline over instance files.

Subcommands: constants, validate, build, reduce, eval, verify, all.
Reports go to stdout as JSON (or to --out); one summary line per stage
goes to stderr.  Exit codes: 0 success, 2 validation failure, 3 build or
evaluation failure, 4 verification failure, 5 parse error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import fields

from . import __version__
from .base import validate_extension
from .evaluator import EvalError, Evaluator
from .instance import Instance, InstanceError, RunOptions, fraction_json, load_instance
from .normal_form import (
    BuildError,
    BuildRefused,
    NormalFormResult,
    ResonanceResult,
    build_taylor,
    resonance_reduce,
    seeded_lift,
)
from .polymap import identity_map
from .report import (
    assemble_report,
    build_json,
    constants_json,
    criticality_json,
    dump_report,
    eval_json,
    reduce_json,
    validation_json,
    witness_json,
)
from .spectrum import check_narrowness, criticality, spectral_constants
from .verify import (
    VerifyError,
    check_centralizer,
    check_flag_preservation,
    check_linearization,
    check_uniqueness,
    check_uniqueness_resonance,
    pinned_rebuild_matches,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUILD = 3
EXIT_VERIFY = 4
EXIT_PARSE = 5


class StageFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _note(text: str) -> None:
    print(text, file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args does
    not change it."""
    ap = argparse.ArgumentParser(
        prog="nsnf",
        description="Polynomial normal forms for contracting extensions over finite bases.",
    )
    ap.add_argument("--version", action="version", version=f"nsnf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = [
        ("constants", "derived spectrum constants and the narrowness/criticality gates"),
        ("validate", "standing-assumption checks for the extension"),
        ("build", "Taylor conjugacy and sub-resonance normal form, then resonance reduction"),
        ("reduce", "same pipeline as build; kept as a named alias for the reduction step"),
        ("eval", "build, then limit-conjugacy residual statistics and contact orders"),
        ("verify", "build, then uniqueness, flag, linearization and centralizer checks"),
        ("all", "every stage in order"),
    ]
    for name, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("instance", help="path to an instance JSON file")
        sp.add_argument(
            "--mode",
            choices=["rational", "float"],
            help="override the scalar mode (rational instances may run as float)",
        )
        sp.add_argument("--lift", choices=["complement", "seeded"], help="lift strategy")
        sp.add_argument("--seed", type=int, help="seed for lifts and sampling")
        sp.add_argument("--tol", type=float, help="evaluator stopping tolerance")
        sp.add_argument("--kmax", dest="k_max", type=int, help="evaluator iteration cap")
        sp.add_argument("--samples", type=int, help="residual sample count")
        sp.add_argument("--radius", type=float, help="sampling ball radius")
        sp.add_argument(
            "--force", action="store_true", default=None, help="build past a failed validation"
        )
        sp.add_argument("--timings", action="store_true", help="include wall-clock timings")
        sp.add_argument("--out", help="write the JSON report to this path")
    return ap


def _load(args) -> Instance:
    """The instance file with the option flags laid over its options; each
    flag's dest is the option's name, None where it is not given."""
    flags = {f.name: getattr(args, f.name) for f in fields(RunOptions)}
    inst = load_instance(args.instance, {k: v for k, v in flags.items() if v is not None})
    return inst.with_mode(args.mode) if args.mode else inst


def _stage_constants(inst: Instance, sections: dict) -> None:
    constants = spectral_constants(inst.spec)
    crit = criticality(inst.spec, inst.n_taylor, inst.alpha)
    narrow = check_narrowness(inst.spec, constants)
    sections["constants"] = constants_json(constants)
    sections["narrowness"] = {"epsilon": fraction_json(inst.spec.epsilon), "ok": narrow}
    sections["criticality"] = criticality_json(crit)
    _note(
        f"[constants] d={constants.d} eps0={constants.eps0} "
        f"narrowness={'ok' if narrow else 'FAIL'} criticality={'ok' if crit.ok else 'FAIL'}"
    )


def _stage_validate(inst: Instance, sections: dict, gate: bool) -> None:
    report = validate_extension(inst.ext, inst.spec, inst.n_taylor, inst.alpha)
    sections["validation"] = validation_json(report)
    status = "ok" if report.passed else "FAIL"
    _note(f"[validate] {status} ({len(report.checks)} checks)")
    if gate and not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise StageFailure(EXIT_VALIDATION, f"validation failed: {names}")


def _stage_build(inst: Instance, sections: dict) -> NormalFormResult:
    try:
        nf = build_taylor(
            inst.ext,
            inst.spec,
            inst.n_taylor,
            inst.alpha,
            lift=inst.options.lift_strategy(),
            force=inst.options.force,
        )
    except BuildRefused as err:
        raise StageFailure(EXIT_VALIDATION, f"build refused: {err}")
    except BuildError as err:
        raise StageFailure(EXIT_BUILD, f"build failed: {err}")
    sections["validation"] = validation_json(nf.validation)
    sections["build"] = build_json(nf)
    _note(f"[build] certified={nf.certified} lift={nf.lift_kind} n_taylor={nf.n_taylor}")
    return nf


def _stage_reduce(inst: Instance, nf: NormalFormResult, sections: dict) -> ResonanceResult:
    try:
        red = resonance_reduce(nf, lift=inst.options.lift_strategy())
    except BuildError as err:
        raise StageFailure(EXIT_BUILD, f"resonance reduction failed: {err}")
    sections["reduction"] = reduce_json(red)
    ident = identity_map(inst.ext.dims, 1, inst.mode).coeffs
    nontrivial = sum(1 for g in red.h_prime if dict(g.poly.coeffs) != dict(ident))
    _note(f"[reduce] done, nontrivial changes at {nontrivial}/{inst.ext.base.p} points")
    return red


def _stage_eval(inst: Instance, nf: NormalFormResult, sections: dict) -> None:
    opts = inst.options
    try:
        ev = Evaluator(nf, opts.eval_config())
        n = inst.ext.dims.total
        direction = [1.0 / math.sqrt(n)] * n
        rays = [(x, direction) for x in range(inst.ext.base.p)]
        stats, fits = ev.survey(opts.seed, opts.samples, rays)
    except EvalError as err:
        raise StageFailure(EXIT_BUILD, f"evaluation failed: {err}")
    sections["evaluation"] = eval_json(stats, fits)
    _note(
        f"[eval] max_residual={stats.max_residual:.3e} over {stats.samples} samples, "
        f"cert_ratio={stats.cert_ratio:.3g}"
    )
    if stats.max_residual > 10 * opts.tol:
        raise StageFailure(
            EXIT_BUILD,
            f"max residual {stats.max_residual:.3e} exceeds 10*tol = {10 * opts.tol:.3e}",
        )


def _stage_verify(
    inst: Instance,
    nf: NormalFormResult,
    red: ResonanceResult,
    sections: dict,
) -> None:
    opts = inst.options
    verdicts: dict = {}
    sections["verification"] = verdicts
    failures: list[str] = []

    def record(name: str, verdict: dict) -> None:
        verdicts[name] = verdict
        if not verdict["ok"]:
            failures.append(name)

    try:
        other = nf.rebuild(seeded_lift(opts.seed + 1))
        uniq = check_uniqueness(nf, other)
        # the rebuild's power tables of H served that transition solve only
        other.h_powers = None
        record("uniqueness", witness_json(uniq))
        red_other = resonance_reduce(other, lift=inst.options.lift_strategy())
        uniq_res = check_uniqueness_resonance(nf, red, other, red_other, uniq)
        record("uniqueness_resonance", witness_json(uniq_res))
        record("pinned_rebuild", {"ok": pinned_rebuild_matches(nf)})

        flags = [check_flag_preservation(nf.p_poly(x), inst.spec) for x in range(inst.ext.base.p)]
        record("flag_preservation", {"ok": all(flags), "per_point": flags})
        if inst.spec.ell == 1:
            record("linearization", {"ok": check_linearization(nf)})

        if inst.commuting is not None:
            samples = 0 if inst.mode.exact else min(opts.samples, 50)
            cz = check_centralizer(
                nf,
                inst.commuting,
                inst.commuting_n,
                inst.commuting_alpha,
                reduced=red,
                samples=samples,
                seed=opts.seed,
                cfg=opts.eval_config(),
            )
            verdicts["centralizer"] = witness_json(cz)
            if not cz.ok:
                failures.append(f"centralizer[{cz.stage}]")
    except (BuildRefused, BuildError) as err:
        raise StageFailure(EXIT_BUILD, f"rebuild during verification failed: {err}")
    except VerifyError as err:
        verdicts["aborted"] = {"stage": err.stage, "message": str(err)}
        raise StageFailure(EXIT_VERIFY, f"verification aborted: {err}")

    checked = ", ".join(sorted(verdicts))
    _note(f"[verify] {'ok' if not failures else 'FAIL'} ({checked})")
    if failures:
        raise StageFailure(EXIT_VERIFY, "verification failed: " + ", ".join(failures))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    timings: dict = {}
    sections: dict = {}
    code = EXIT_OK
    message = None

    try:
        inst = _load(args)
    except InstanceError as err:
        _note(f"error: {err}")
        return EXIT_PARSE

    def timed(name, fn, *fn_args):
        start = time.perf_counter()
        try:
            return fn(*fn_args)
        finally:
            timings[name] = time.perf_counter() - start

    try:
        timed("constants", _stage_constants, inst, sections)
        if args.command == "validate":
            timed("validate", _stage_validate, inst, sections, True)
        elif args.command != "constants":
            nf = timed("build", _stage_build, inst, sections)
            red = timed("reduce", _stage_reduce, inst, nf, sections)
            if args.command in ("eval", "all"):
                timed("eval", _stage_eval, inst, nf, sections)
            if args.command in ("verify", "all"):
                timed("verify", _stage_verify, inst, nf, red, sections)
    except StageFailure as err:
        code = err.code
        message = str(err)

    report = assemble_report(
        digest=inst.digest,
        seed=inst.options.seed,
        mode=inst.mode,
        sections=sections,
        timings=timings if args.timings else None,
    )
    report["exit_code"] = code
    try:
        dump_report(report, args.out)
    except OSError as err:
        _note(f"error: cannot write report: {err}")
        return EXIT_PARSE
    if message:
        _note(f"error: {message}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
