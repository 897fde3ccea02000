"""Deterministic JSON reports for pipeline runs.

Rationals appear as {"num", "den"} objects; coefficient tables follow the
graded monomial order, so a rational-mode report is bit-for-bit
reproducible.  Timings are filled only on request since they would break
that reproducibility.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii

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
        "max_bound": stats.max_bound,
        "max_k_star": stats.max_k_star,
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


# -- writing ------------------------------------------------------------
#
# json.dumps pretty-prints through the standard library's pure-Python
# encoder whenever an indent is given; the writer below emits the same
# text with less work per value.  Scalars are written as that encoder
# writes them: strings through its ASCII escaper, bools before ints,
# int and float subclasses by int.__repr__ and float.__repr__.

_INF = float("inf")

# `dump_report` writes its buffer out every CHUNK_RECORDS records of a
# record list, the only lists that grow with the size of the polynomials.
CHUNK_RECORDS = 512


class _Stream(list):
    """A text buffer that `flush` empties into the file `fh`."""

    def __init__(self, fh) -> None:
        super().__init__()
        self.fh = fh

    def flush(self) -> None:
        self.fh.write("".join(self))
        self.clear()


def _float_text(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


def _scalar_text(o) -> str | None:
    """JSON text of a scalar, or None when o is a container."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    return None


def _key_text(key) -> str:
    if not isinstance(key, str):
        text = _scalar_text(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = text
    return encode_basestring_ascii(key) + ": "


def _write(o, level: int, out: _Stream) -> None:
    """Append the text of o at nesting depth `level` to out."""
    text = _scalar_text(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple)):
        _write_list(o, level, out)
    elif isinstance(o, dict):
        _write_dict(o, level, out)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write_dict(d: dict, level: int, out: _Stream) -> None:
    if not d:
        out.append("{}")
        return
    sep = "{\n" + "  " * (level + 1)
    for key, value in sorted(d.items()):
        out.append(sep + _key_text(key))
        _write(value, level + 1, out)
        sep = ",\n" + "  " * (level + 1)
    out.append("\n" + "  " * level + "}")


def _write_list(lst, level: int, out: _Stream) -> None:
    if not lst:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level + "]"
    if all(type(v) is int for v in lst):
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, lst)) + close)
        return
    first = lst[0]
    if isinstance(first, dict) and first:
        keys = first.keys()
        if all(isinstance(v, dict) and v.keys() == keys for v in lst):
            _write_records(lst, sorted(keys), level, out)
            return
    sep = "[" + inner
    for value in lst:
        out.append(sep)
        _write(value, level + 1, out)
        sep = "," + inner
    out.append(close)


def _write_records(lst, keys: list, level: int, out: _Stream) -> None:
    """A list of nonempty dicts that share one key set, `keys` sorted."""
    inner = "\n" + "  " * (level + 1)
    field = "\n" + "  " * (level + 2)
    deep = "\n" + "  " * (level + 3)
    heads = [("{" if i == 0 else ",") + field + _key_text(k) for i, k in enumerate(keys)]
    fields = list(zip(heads, keys))
    # an int list as a field value
    open_list, item, close_list = "[" + deep, "," + deep, field + "]"
    close = inner + "}"
    append = out.append
    sep = "[" + inner
    for n, rec in enumerate(lst, 1):
        append(sep)
        for head, key in fields:
            value = rec[key]
            if type(value) is int:
                append(head + int.__repr__(value))
            elif type(value) is float:
                append(head + _float_text(value))
            elif type(value) is list and value and all(type(v) is int for v in value):
                append(head + open_list + item.join(map(int.__repr__, value)) + close_list)
            else:
                append(head)
                _write(value, level + 2, out)
        append(close)
        sep = "," + inner
        if n % CHUNK_RECORDS == 0:
            out.flush()
    append("\n" + "  " * level + "]")


def dump_report(report: dict, out: str | None = None) -> None:
    """Write the report as the bytes of json.dumps(report, sort_keys=True,
    indent=2) plus a newline, to stdout or to the file `out`.

    The text goes out in chunks of CHUNK_RECORDS records, so the whole of
    it is never held at once.  A value that cannot be serialized raises
    TypeError and may leave a prefix of the report written.
    """
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        buf = _Stream(fh)
        _write(report, 0, buf)
        buf.append("\n")
        buf.flush()
