"""Instance files: JSON descriptions of an extension, its spectrum bands,
regularity, optional commuting extension, and run options.

Rationals are serialized as {"num": ..., "den": ...} objects (plain ints
are accepted and read as integers).  No value is coerced: a boolean or a
float where an integer belongs is refused, and so is a float coefficient
that is not a finite number.  Parse failures raise InstanceError with the
JSON path of the offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .base import Extension, FiniteBase
from .evaluator import EvalConfig
from .normal_form import LiftStrategy, complement_lift, seeded_lift
from .polymap import GradedDims, PolyMap, _is_int, record_ratio, record_term, to_records
from .scalars import policy
from .spectrum import SpectrumSpec


class InstanceError(ValueError):
    """Malformed instance file; message carries the JSON path."""


def _fail(where: str, message: str):
    raise InstanceError(f"{where}: {message}")


def parse_fraction(obj, where: str) -> Fraction:
    if isinstance(obj, bool):
        _fail(where, "expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, dict):
        extra = set(obj) - {"num", "den"}
        if extra:
            _fail(where, f"unexpected keys {sorted(extra)} in rational")
        if "num" not in obj:
            _fail(where, "rational object needs a 'num' field")
        return record_ratio(obj, f"{where}.", InstanceError)
    _fail(where, f"expected a rational (int or num/den object), got {type(obj).__name__}")


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_list(value, where: str) -> list:
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        _fail(where, "expected a list of integers")
    return value


def fraction_json(value: Fraction) -> dict:
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


@dataclass(frozen=True)
class RunOptions:
    """The run's options, built once by `parse_instance` from checked values."""

    lift: str = "complement"
    seed: int = 0
    tol: float = EvalConfig.tol
    k_max: int = EvalConfig.k_max
    samples: int = 1000
    radius: float = EvalConfig.radius
    force: bool = False

    def lift_strategy(self) -> LiftStrategy:
        return seeded_lift(self.seed) if self.lift == "seeded" else complement_lift()

    def eval_config(self) -> EvalConfig:
        return EvalConfig(tol=self.tol, k_max=self.k_max, radius=self.radius)


# each option's test and what a refusal says it expected, in checking order
_OPTION_CHECKS = {
    "lift": (lambda v: v in ("complement", "seeded"), "'complement' or 'seeded'"),
    "seed": (_is_int, "an integer"),
    "k_max": (_is_int, "an integer"),
    "samples": (lambda v: _is_int(v) and v >= 0, "a non-negative count"),
    "tol": (_is_number, "a number"),
    "radius": (_is_number, "a number"),
    "force": (lambda v: isinstance(v, bool), "true or false"),
}


def _checked_options(values: dict, sigma: float, source: str) -> dict:
    """Some of the run's options, each checked on its own (tol and radius
    made floats); a refusal names the option and, through `source`, where
    its value came from.  The evaluator's ranges are `EvalConfig`'s own
    checks, and the radius may not exceed sigma."""
    extra = set(values) - set(_OPTION_CHECKS)
    if extra:
        _fail(f"options{source}", f"unknown option keys {sorted(extra)}")
    for name, (test, expected) in _OPTION_CHECKS.items():
        if name in values and not test(values[name]):
            _fail(f"options.{name}{source}", f"expected {expected}, got {values[name]!r}")
    checked = {k: float(v) if k in ("tol", "radius") else v for k, v in values.items()}
    try:
        EvalConfig(**{k: checked[k] for k in ("tol", "k_max", "radius") if k in checked})
    except ValueError as err:
        _fail(f"options{source}", str(err))
    if checked.get("radius", 0.0) > sigma:
        _fail(f"options.radius{source}", "exceeds the certified ball radius sigma")
    return checked


@dataclass
class Instance:
    spec: SpectrumSpec
    ext: Extension
    n_taylor: int
    alpha: Fraction
    commuting: Extension | None
    commuting_n: int | None
    commuting_alpha: Fraction | None
    options: RunOptions
    digest: str

    @property
    def mode(self) -> str:
        return self.ext.mode

    def with_mode(self, mode: str) -> "Instance":
        if mode == self.mode:
            return self
        if not policy(mode).exact:
            commuting = self.commuting.to_float() if self.commuting else None
            return replace(self, ext=self.ext.to_float(), commuting=commuting)
        raise InstanceError(
            "mode: cannot convert a float instance to exact rationals"
        )


def _parse_poly_records(records, dims: GradedDims, mode: str, where: str) -> PolyMap:
    if not isinstance(records, list) or not records:
        _fail(where, "expected a non-empty list of coefficient records")
    cap = 1
    coeffs = {}
    for j, rec in enumerate(records):
        spot = f"{where}[{j}]"
        if not isinstance(rec, dict):
            _fail(spot, "coefficient record must be an object")
        key, value = record_term(rec, mode, f"{spot}.", InstanceError)
        if key in coeffs:
            _fail(spot, f"duplicate record for {key}")
        coeffs[key] = value
        cap = max(cap, sum(key[1]))
    try:
        return PolyMap(dims, dims, cap, mode, coeffs)
    except ValueError as err:
        _fail(where, str(err))


def _parse_extension(
    perm: list, fibers_raw, sigma, xi, dims: GradedDims, mode: str, where: str
) -> Extension:
    """The extension of a permutation already read from `where` and its
    fiber records, at the instance's sigma and xi."""
    try:
        base = FiniteBase(perm)
    except ValueError as err:
        _fail(f"{where}.permutation", str(err))
    if not isinstance(fibers_raw, list) or len(fibers_raw) != base.p:
        _fail(f"{where}.fibers", f"expected one fiber record list per point ({base.p})")
    fibers = [
        _parse_poly_records(rec, dims, mode, f"{where}.fibers[{x}]")
        for x, rec in enumerate(fibers_raw)
    ]
    try:
        return Extension(base, dims, fibers, sigma=sigma, xi=xi, mode=mode)
    except ValueError as err:
        _fail(where, str(err))


def parse_instance(raw: dict, digest: str | None = None, overrides: dict | None = None) -> Instance:
    """The instance of a JSON object.  `overrides` maps option names to
    command-line values; the file's `options` and the overrides are each
    checked, then the overrides are laid over the file's options."""
    if not isinstance(raw, dict):
        _fail("$", "instance must be a JSON object")
    for key in ("spectrum", "regularity", "base", "dims", "sigma", "xi", "mode", "fibers"):
        if key not in raw:
            _fail("$", f"missing top-level field '{key}'")

    try:
        mode = policy(raw["mode"])
    except ValueError:
        _fail("mode", f"expected 'rational' or 'float', got {raw['mode']!r}")

    spectrum = raw["spectrum"]
    if not isinstance(spectrum, dict) or "chi" not in spectrum or "epsilon" not in spectrum:
        _fail("spectrum", "needs 'chi' and 'epsilon'")
    if not isinstance(spectrum["chi"], list):
        _fail("spectrum.chi", "expected a list of rationals")
    chi = [parse_fraction(c, f"spectrum.chi[{i}]") for i, c in enumerate(spectrum["chi"])]
    eps = parse_fraction(spectrum["epsilon"], "spectrum.epsilon")
    try:
        spec = SpectrumSpec(chi, eps)
    except ValueError as err:
        _fail("spectrum", str(err))

    reg = raw["regularity"]
    if not isinstance(reg, dict) or "n_taylor" not in reg:
        _fail("regularity", "needs 'n_taylor' (and optional 'alpha')")
    n_taylor = reg["n_taylor"]
    if not _is_int(n_taylor) or n_taylor < 1:
        _fail("regularity.n_taylor", "expected a positive integer")
    alpha = parse_fraction(reg.get("alpha", 0), "regularity.alpha")

    dims_raw = raw["dims"]
    if not isinstance(dims_raw, list) or not all(_is_int(m) and m >= 1 for m in dims_raw):
        _fail("dims", "expected a list of positive block dimensions")
    if len(dims_raw) != spec.ell:
        _fail("dims", f"{len(dims_raw)} blocks against {spec.ell} spectrum values")
    dims = GradedDims(dims_raw)

    for key in ("sigma", "xi"):
        if not _is_number(raw[key]):
            _fail(key, f"expected a number, got {type(raw[key]).__name__}")

    base_block = raw["base"]
    if not isinstance(base_block, dict) or "permutation" not in base_block:
        _fail("base", "needs 'permutation' (and optional 'p')")
    perm = _int_list(base_block["permutation"], "base.permutation")
    declared_p = base_block.get("p")
    if declared_p is not None and (not _is_int(declared_p) or declared_p != len(perm)):
        _fail("base.p", "does not match the permutation length")

    ext = _parse_extension(perm, raw["fibers"], raw["sigma"], raw["xi"], dims, mode, "$")

    commuting = commuting_n = commuting_alpha = None
    if raw.get("commuting") is not None:
        cm = raw["commuting"]
        if not isinstance(cm, dict):
            _fail("commuting", "expected an object")
        for key in ("permutation", "fibers"):
            if cm.get(key) is None:
                _fail("commuting", f"missing '{key}'")
        cm_perm = _int_list(cm["permutation"], "commuting.permutation")
        commuting = _parse_extension(
            cm_perm, cm["fibers"], raw["sigma"], raw["xi"], dims, mode, "commuting"
        )
        cm_reg = cm.get("regularity", {})
        if not isinstance(cm_reg, dict):
            _fail("commuting.regularity", "expected an object")
        commuting_n = cm_reg.get("n_taylor", n_taylor)
        commuting_alpha = (
            parse_fraction(cm_reg["alpha"], "commuting.regularity.alpha")
            if "alpha" in cm_reg
            else alpha
        )
        if not _is_int(commuting_n) or commuting_n < 1:
            _fail("commuting.regularity.n_taylor", "expected a positive integer")

    opts = raw.get("options", {})
    if not isinstance(opts, dict):
        _fail("options", "expected an object")
    sigma = float(raw["sigma"])
    opts = _checked_options(opts, sigma, "")
    flags = _checked_options(overrides or {}, sigma, " (command line)")
    options = RunOptions(**{"radius": min(RunOptions.radius, sigma / 5.0), **opts, **flags})

    if digest is None:
        digest = digest_of(raw)
    return Instance(
        spec=spec,
        ext=ext,
        n_taylor=n_taylor,
        alpha=alpha,
        commuting=commuting,
        commuting_n=commuting_n,
        commuting_alpha=commuting_alpha,
        options=options,
        digest=digest,
    )


def digest_of(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_instance(path: str, overrides: dict | None = None) -> Instance:
    """The instance in a JSON file, with command-line option overrides
    (see `parse_instance`); a refusal names the file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise InstanceError(f"{path}: no such instance file")
    except json.JSONDecodeError as err:
        raise InstanceError(f"{path}:{err.lineno}:{err.colno}: {err.msg}")
    try:
        return parse_instance(raw, overrides=overrides)
    except InstanceError as err:
        raise InstanceError(f"{path}: {err}") from None


def extension_json(ext: Extension) -> dict:
    return {
        "permutation": list(ext.base.perm),
        "fibers": [to_records(ext.fiber(x)) for x in range(ext.base.p)],
    }


def instance_json(
    spec: SpectrumSpec,
    ext: Extension,
    n_taylor: int,
    alpha,
    commuting: Extension | None = None,
    commuting_n: int | None = None,
    commuting_alpha=None,
    options: dict | None = None,
) -> dict:
    """Assemble the canonical JSON object for an instance."""
    raw = {
        "spectrum": {
            "chi": [fraction_json(c) for c in spec.chi],
            "epsilon": fraction_json(spec.epsilon),
        },
        "regularity": {"n_taylor": n_taylor, "alpha": fraction_json(Fraction(alpha))},
        "base": {"p": ext.base.p, "permutation": list(ext.base.perm)},
        "dims": list(ext.dims.dims),
        "sigma": ext.sigma,
        "xi": ext.xi,
        "mode": ext.mode,
        "fibers": [to_records(ext.fiber(x)) for x in range(ext.base.p)],
    }
    if commuting is not None:
        block = extension_json(commuting)
        if commuting_n is not None:
            block["regularity"] = {
                "n_taylor": commuting_n,
                "alpha": fraction_json(Fraction(commuting_alpha if commuting_alpha is not None else 0)),
            }
        raw["commuting"] = block
    if options:
        raw["options"] = dict(options)
    return raw


def save_instance(raw: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
