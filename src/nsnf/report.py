"""Deterministic JSON reports for pipeline runs.

Rationals appear as {"num", "den"} objects; coefficient tables follow the
graded monomial order, so a rational-mode report is bit-for-bit
reproducible.  Timings are filled only on request since they would break
that reproducibility.
"""

from __future__ import annotations

import json
import sys

from . import __version__
from .base import ValidationReport
from .evaluator import OrderFit, ResidualStats
from .instance import fraction_json
from .normal_form import NormalFormResult, ResonanceResult
from .polymap import to_records
from .spectrum import CriticalityCheck, SpectralConstants
from .verify import TransitionWitness


def constants_json(constants: SpectralConstants) -> dict:
    return {
        "d": constants.d,
        "lam_tilde": fraction_json(constants.lam_tilde),
        "lam": fraction_json(constants.lam),
        "mu": None if constants.mu is None else fraction_json(constants.mu),
        "eps0": fraction_json(constants.eps0),
    }


def criticality_json(crit: CriticalityCheck) -> dict:
    return {
        "nu": fraction_json(crit.nu),
        "eps_bound": fraction_json(crit.eps_bound),
        "ok": crit.ok,
    }


def validation_json(report: ValidationReport) -> dict:
    out: dict = {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }
    if report.constants is not None:
        out["constants"] = constants_json(report.constants)
    if report.crit is not None:
        out["criticality"] = criticality_json(report.crit)
    return out


def _lift_json(kind: str, seed: int | None) -> dict:
    return {"kind": kind, "seed": seed}


def _exponents_json(exponents: dict) -> dict:
    return {str(deg): fraction_json(val) for deg, val in sorted(exponents.items())}


def build_json(nf: NormalFormResult) -> dict:
    p = nf.ext.base.p
    return {
        "mode": nf.ext.mode,
        "n_taylor": nf.n_taylor,
        "alpha": fraction_json(nf.alpha),
        "certified": nf.certified,
        "lift": _lift_json(nf.lift_kind, nf.lift_seed),
        "certified_exponents": _exponents_json(nf.certified_exponents),
        "h": [to_records(nf.h_taylor[x]) for x in range(p)],
        "p": [to_records(nf.p_poly(x)) for x in range(p)],
    }


def reduce_json(red: ResonanceResult) -> dict:
    p = red.base.p
    return {
        "lift": _lift_json(red.lift_kind, red.lift_seed),
        "certified_exponents": _exponents_json(red.certified_exponents),
        "h_prime": [to_records(red.h_prime[x].poly) for x in range(p)],
        "p_resonance": [to_records(red.p_res[x].poly) for x in range(p)],
    }


def eval_json(stats: ResidualStats, fits: list[OrderFit] | None = None) -> dict:
    out = {
        "samples": stats.samples,
        "seed": stats.seed,
        "max_residual": stats.max_residual,
        "mean_residual": stats.mean_residual,
        "max_iterations": stats.max_iterations,
        "max_increment_ratio": stats.max_increment_ratio,
        "cert_ratio": stats.cert_ratio,
        "max_one_step_gap": stats.max_one_step_gap,
    }
    if fits is not None:
        out["order_of_contact"] = [
            {
                "slope": f.slope,
                "intercept": f.intercept,
                "radii": list(f.radii),
                "gaps": list(f.gaps),
                "degenerate": f.degenerate,
            }
            for f in fits
        ]
    return out


def witness_json(w: TransitionWitness) -> dict:
    return {
        "tag": w.tag,
        "stage": w.stage,
        "ok": w.ok,
        "off_class": [float(v) for v in w.off_class],
        "detail": w.detail,
        "maps": [to_records(m) for m in w.maps],
    }


def assemble_report(
    digest: str,
    seed: int,
    mode: str,
    sections: dict,
    timings: dict | None = None,
) -> dict:
    report = {
        "tool": {"name": "nsnf", "version": __version__},
        "instance_digest": digest,
        "seed": seed,
        "mode": mode,
        "timings": timings,
    }
    report.update(sections)
    return report


def dump_report(report: dict, out: str | None = None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
