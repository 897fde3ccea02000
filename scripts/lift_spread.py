#!/usr/bin/env python3
"""How much freedom do lifts leave in the computed maps?

Builds one instance under several seeded lifts, each solved on one shared
build plan, then reports the spread of each Taylor coefficient of H and
each normal-form coefficient of P across the seeds, and checks that every
pair of builds differs by an exactly sub-resonance transition family.
The spread concentrates on the strict sub-resonance terms; the
non-sub-resonance Taylor terms and the resonance part of P are pinned by
the spectrum alone.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nsnf.instance import load_instance
from nsnf.normal_form import plan_taylor, seeded_lift, solve_taylor
from nsnf.spectrum import SUB_RESONANCE, TypeClass, classify_type
from nsnf.verify import check_uniqueness


def coefficient_spread(builds, picker):
    spread = {}
    for x in range(builds[0].ext.base.p):
        keys = set()
        for nf in builds:
            keys.update(picker(nf, x).coeffs)
        for key in keys:
            values = [picker(nf, x).coeffs.get(key, Fraction(0)) for nf in builds]
            lo, hi = min(values), max(values)
            if hi > lo:
                spread[(x, key)] = hi - lo
    return spread


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "instance",
        nargs="?",
        default=os.path.join(
            os.path.dirname(__file__), "..", "instances", "worked_2block_rational.json"
        ),
    )
    ap.add_argument("--seeds", type=int, default=8)
    args = ap.parse_args()

    inst = load_instance(args.instance)
    if inst.mode != "rational":
        ap.error("spread accounting needs an exact rational instance")

    # the lift enters only the right-hand sides: plan once, solve per seed
    plan = plan_taylor(
        inst.ext, inst.spec, inst.n_taylor, inst.alpha, force=inst.options.force
    )
    builds = [solve_taylor(plan, seeded_lift(seed)) for seed in range(args.seeds)]

    for a, b in itertools.combinations(builds, 2):
        witness = check_uniqueness(a, b)
        assert witness.ok, "transition between two builds left the sub-resonance class"
    print(f"{args.seeds} builds: all pairwise transitions are sub-resonance, as required")

    sample = builds[0].h_taylor[0]
    for label, picker in (("H", lambda nf, x: nf.h_taylor[x]), ("P", lambda nf, x: nf.p_poly(x))):
        spread = coefficient_spread(builds, picker)
        print(f"\n{label}: {len(spread)} coefficients move across lifts")
        for (x, (coord, exps)), width in sorted(spread.items()):
            cls = classify_type(inst.spec, sample.type_of(coord, exps))
            print(
                f"  point {x} coord {coord} exps {exps}: width {width} ({cls.value})"
            )
        if label == "P":
            moving = {
                classify_type(inst.spec, sample.type_of(coord, exps))
                for (x, (coord, exps)) in spread
            }
            assert moving <= SUB_RESONANCE, "P moved outside the sub-resonance class"
            if TypeClass.RESONANCE not in moving:
                print("  the resonance part of P never moved")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
