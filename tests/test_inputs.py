"""Outside input is checked once, where it enters: the instance parse with
the command-line flags laid over the file's options, `EvalConfig`,
`FiniteBase`, and the rows every `Evaluator` entry point takes."""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import pytest

from nsnf import cli
from nsnf.base import FiniteBase
from nsnf.evaluator import EvalConfig, Evaluator
from nsnf.instance import InstanceError, load_instance
from nsnf.normal_form import build_taylor

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
NAMES = ["worked_2block.json", "three_cycle.json"]


@functools.cache
def _evaluator(name: str, force: bool = False) -> Evaluator:
    inst = load_instance(str(INSTANCES / name))
    lift = inst.options.lift_strategy()
    nf = build_taylor(inst.ext, inst.spec, inst.n_taylor, inst.alpha, lift=lift, force=force)
    return Evaluator(nf, inst.options.eval_config())


# each case: (p, n) -> (base point, point, what the refusal says)
ROWS = {
    "nan": lambda p, n: (0, [math.nan] + [0.0] * (n - 1), r"points\[0\]: .* is not finite"),
    "x=-1": lambda p, n: (-1, [0.01] * n, r"xs\[0\]: -1 is not a base point"),
    "x=p": lambda p, n: (p, [0.01] * n, rf"xs\[0\]: {p} is not a base point"),
    "x=0.5": lambda p, n: (0.5, [0.01] * n, "xs: expected integer base points"),
    "n-1": lambda p, n: (0, [0.01] * (n - 1), f"points: expected one row of {n} coordinates"),
    "n+1": lambda p, n: (0, [0.01] * (n + 1), f"points: expected one row of {n} coordinates"),
    "outside": lambda p, n: (0, [0.2] + [0.0] * (n - 1), "exceeds the sample radius 0.05"),
}
# `limits` refused a row outside the radius already, and so did the entry
# points that go through it
INSIDE = [case for case in ROWS if case != "outside"]


def _row(name, case):
    ev = _evaluator(name)
    return (ev, *ROWS[case](ev.base.p, ev.ext.dims.total))


@pytest.mark.parametrize("case", INSIDE)
@pytest.mark.parametrize("name", NAMES)
def test_limits_refuses_bad_rows(name, case):
    ev, x, t, match = _row(name, case)
    with pytest.raises(ValueError, match=match):
        ev.limits([x], [t])


@pytest.mark.parametrize("case", INSIDE)
@pytest.mark.parametrize("name", NAMES)
def test_eval_h_refuses_bad_rows(name, case):
    ev, x, t, match = _row(name, case)
    with pytest.raises(ValueError, match=match):
        ev.eval_h(x, t)


@pytest.mark.parametrize("case", sorted(ROWS))
@pytest.mark.parametrize("name", NAMES)
def test_eval_taylor_refuses_bad_rows(name, case):
    ev, x, t, match = _row(name, case)
    with pytest.raises(ValueError, match=match):
        ev.eval_taylor(x, t)


@pytest.mark.parametrize("case", sorted(ROWS))
@pytest.mark.parametrize("name", NAMES)
def test_certified_stop_refuses_bad_rows(name, case):
    ev, x, t, match = _row(name, case)
    with pytest.raises(ValueError, match=match):
        ev.certified_stop(x, t)


@pytest.mark.parametrize("case", INSIDE)
@pytest.mark.parametrize("name", NAMES)
def test_residual_refuses_bad_rows(name, case):
    ev, x, t, match = _row(name, case)
    with pytest.raises(ValueError, match=match):
        ev.residual(x, t)


@pytest.mark.parametrize(
    "x, length, match",
    [
        pytest.param(5, None, r"rays: xs\[0\]: 5 is not a base point", id="x=5"),
        pytest.param(-1, None, r"rays: xs\[0\]: -1 is not a base point", id="x=-1"),
        pytest.param(0, 1, "rays: points: expected one row", id="length-1"),
        pytest.param(0, 3, "rays: points: expected one row", id="length-3"),
    ],
)
@pytest.mark.parametrize("name", NAMES)
def test_order_of_contact_refuses_bad_rays(name, x, length, match):
    # raised IndexError or numpy's reshape error, naming no argument
    ev = _evaluator(name)
    with pytest.raises(ValueError, match=match):
        ev.order_of_contact(x, [1.0] * (length or ev.ext.dims.total))


@pytest.mark.parametrize("name", NAMES)
def test_order_of_contact_refuses_radii_above_the_sample_radius(name):
    # the certified stop bounds rows inside the sample radius only
    ev = _evaluator(name)
    with pytest.raises(ValueError, match=r"^radii must be at most the sample radius 0\.05, "):
        ev.order_of_contact(0, [1.0] * ev.ext.dims.total, radii=[0.1, 0.05])


def test_residual_refuses_a_step_that_leaves_the_radius():
    # |t| is inside the radius, |F_x(t)| is not: the extension fails its
    # contraction check and was built with force
    ev = _evaluator("strictsub_linear.json", force=True)
    assert ev.residual(0, (0.05, 0.0)) >= 0.0
    with pytest.raises(ValueError, match=r"^\|F_x\(t\)\| = 0\.05677 exceeds the radius 0\.05$"):
        ev.residual(0, (0.05, 0.05))


@pytest.mark.parametrize("name", NAMES)
def test_survey_refuses_a_negative_sample_count(name):
    with pytest.raises(ValueError, match="^samples must be non-negative, got -3$"):
        _evaluator(name).survey(0, -3)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda ev: ev.sample_points(0, -3, 0.05), "^samples must be non-negative, got -3$"),
        (lambda ev: ev.sample_points(0, 2.5, 0.05), "^samples must be an integer, got 2.5$"),
        (lambda ev: ev.sample_points(0, 5, -1.0), "^radius must be positive and finite, got -1.0$"),
        (lambda ev: ev.sample_points(0, 5, "x"), "^radius must be positive and finite, got 'x'$"),
        (lambda ev: ev.survey(0, 2.5), "^samples must be an integer, got 2.5$"),
    ],
    ids=["samples-negative", "samples-float", "radius-negative", "radius-str", "survey-float"],
)
@pytest.mark.parametrize("name", NAMES)
def test_sample_arguments_are_refused_by_name(name, call, match):
    # raised from random.getrandbits or as a TypeError, naming no argument
    with pytest.raises(ValueError, match=match):
        call(_evaluator(name))


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"tol": math.inf}, "tol"),
        ({"radius": math.inf}, "radius"),
        ({"k_max": 2.5}, "k_max"),
        ({"k_max": True}, "k_max"),
        # these raised a TypeError from the comparison, naming no field
        ({"tol": "x"}, "tol"),
        ({"radius": None}, "radius"),
        ({"tol": True}, "tol"),
    ],
    ids=["tol-inf", "radius-inf", "k_max-float", "k_max-bool", "tol-str", "radius-none", "tol-bool"],
)
def test_eval_config_refuses_non_finite_and_non_integer_fields(fields, named):
    with pytest.raises(ValueError, match=f"^{named} must be"):
        EvalConfig(**fields)


def _write(tmp_path, name, edit) -> str:
    raw = json.loads((INSTANCES / name).read_text())
    edit(raw)
    out = tmp_path / name
    out.write_text(json.dumps(raw))
    return str(out)


def test_tol_flag_inf_exits_5_naming_tol(capsys):
    # an infinite tol made the 10 tol residual gate pass any run
    code = cli.main(["eval", str(INSTANCES / "worked_2block.json"), "--tol", "inf"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert captured.err.startswith("error: ") and "tol" in captured.err
    assert "options (command line): tol must be positive and finite" in captured.err


def test_empty_permutation_is_refused(tmp_path, capsys):
    with pytest.raises(ValueError, match="empty permutation"):
        FiniteBase([])

    def edit(raw):
        raw["base"] = {"permutation": []}
        raw["fibers"] = []
        raw.pop("commuting", None)

    code = cli.main(["all", _write(tmp_path, "three_cycle.json", edit)])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    assert "permutation: empty permutation" in captured.err


def test_flags_are_laid_over_the_file_options_in_one_parse():
    args = cli._parser().parse_args(["eval", "x.json", "--kmax", "7", "--force"])
    assert (args.k_max, args.force, args.seed) == (7, True, None)
    name = str(INSTANCES / "three_cycle.json")
    inst = load_instance(name, {"k_max": 7, "force": True})
    assert (inst.options.k_max, inst.options.force) == (7, True)
    # a flag's refusal says that its value came from the command line
    with pytest.raises(InstanceError, match=r"\.json: options\.radius \(command line\): exceeds"):
        load_instance(name, {"radius": 10.0})


@pytest.mark.parametrize(
    "option, value, flag",
    [("k_max", "ten", 7), ("radius", 10.0, 0.01), ("tol", -1.0, 1e-10)],
    ids=["k_max", "radius", "tol"],
)
def test_a_bad_file_option_is_refused_under_a_flag(tmp_path, option, value, flag):
    # whether a file is valid does not depend on the flags laid over it
    edit = lambda raw: raw.setdefault("options", {}).update({option: value})  # noqa: E731
    target = _write(tmp_path, "three_cycle.json", edit)
    with pytest.raises(InstanceError, match=rf"\.json: options(\.{option}: |: {option} )") as err:
        load_instance(target, {option: flag})
    assert "command line" not in str(err.value)
