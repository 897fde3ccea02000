"""Output checks on the JSON reports the nsnf command line writes.

Rational reports are compared section by section, through a digest of each
exact section, against digests recorded at the commit the benchmark was
defined on.  Float ladder builds are compared with their rational twins.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import HERE

# The exact sections of a rational report: no timings, no float evaluation
# statistics.
EXACT_SECTIONS = ("build", "reduction", "verification")
REFERENCE_FILE = HERE / "reference.json"
# The library's own relative tolerance for float-mode consistency checks.
FLOAT_TOL = 1e-9


def section_digests(report: dict) -> dict[str, str]:
    """SHA-256 of each exact section the report holds."""
    out = {}
    for name in EXACT_SECTIONS:
        if name in report:
            canon = json.dumps(report[name], sort_keys=True, separators=(",", ":"))
            out[name] = hashlib.sha256(canon.encode()).hexdigest()
    return out


def compare_sections(report: dict, reference: dict[str, str]) -> str | None:
    """The problem with a report's exact sections, if any.

    Every section the reference holds must be present and unchanged.  A
    job that stopped before verification at the reference commit may reach
    it later (a fix to the evaluator's stopping rule does that); its new
    `verification` section is accepted when every verdict in it is ok.
    """
    digests = section_digests(report)
    for name, expected in reference.items():
        if name not in digests:
            return f"{name} section missing"
        if digests[name] != expected:
            return f"{name} section differs from the reference"
    for name in digests.keys() - reference.keys():
        if name != "verification":
            return f"{name} section not in the reference"
        failing = sorted(
            key
            for key, verdict in report[name].items()
            if not (isinstance(verdict, dict) and verdict.get("ok") is True)
        )
        if failing:
            return "new verification section fails " + ", ".join(failing)
    return None


def load_reference() -> dict[str, dict[str, str]]:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["digests"]


def _coefficients(records: list[dict]) -> dict:
    out = {}
    for rec in records:
        key = (rec["coord"], tuple(rec["exponents"]))
        if "value" in rec:
            out[key] = rec["value"]
        else:
            out[key] = Fraction(rec["num"], rec["den"])
    return out


def twin_gap(rational: dict, floating: dict) -> float:
    """Worst relative gap between the H and P tables of two build sections.

    Each map's gap is its largest coefficient difference over
    max(1, largest rational coefficient), as the library scales its own
    float checks.
    """
    worst = 0.0
    for table in ("h", "p"):
        for exact_recs, float_recs in zip(rational[table], floating[table], strict=True):
            exact = _coefficients(exact_recs)
            approx = _coefficients(float_recs)
            scale = max([1.0] + [abs(float(v)) for v in exact.values()])
            gap = max(
                (abs(float(exact.get(k, 0)) - approx.get(k, 0.0)) for k in exact.keys() | approx.keys()),
                default=0.0,
            )
            worst = max(worst, gap / scale)
    return worst


def coefficient_stats(report: dict) -> tuple[int, int]:
    """Terms in all H_x, and the largest numerator or denominator bit length
    in the H and P tables of a rational report."""
    build = report.get("build")
    if build is None:
        return 0, 0
    terms = sum(len(recs) for recs in build["h"])
    bits = 0
    for table in ("h", "p"):
        for recs in build[table]:
            for rec in recs:
                bits = max(bits, abs(rec["num"]).bit_length(), rec["den"].bit_length())
    return terms, bits


def record_reference(digests: dict[str, dict[str, str]], commit: str) -> None:
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"commit": commit, "digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
