"""End-to-end command-line runs over the shipped instance files."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from nsnf import cli
from nsnf.instance import load_instance

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_cli(capsys, *args) -> tuple[int, dict, str]:
    code = cli.main(list(args))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else {}
    return code, report, captured.err


def path(name: str) -> str:
    return str(INSTANCES / name)


def test_constants_worked(capsys):
    code, rep, err = run_cli(capsys, "constants", path("worked_2block_rational.json"))
    assert code == 0
    assert rep["constants"]["d"] == 2
    assert rep["constants"]["lam"] == {"num": -1, "den": 1}
    assert rep["constants"]["mu"] == {"num": -1, "den": 1}
    assert rep["constants"]["eps0"] == {"num": 1, "den": 4}
    assert rep["narrowness"]["ok"] is True
    assert rep["criticality"]["ok"] is True
    assert "[constants]" in err


def test_validate_pass_and_fail(capsys):
    code, rep, _ = run_cli(capsys, "validate", path("three_cycle.json"))
    assert code == 0 and rep["validation"]["passed"] is True

    code, rep, err = run_cli(capsys, "validate", path("strictsub_linear_rational.json"))
    assert code == 2
    assert rep["validation"]["passed"] is False
    failed = {c["name"] for c in rep["validation"]["checks"] if not c["ok"]}
    assert "block-diagonal" in failed
    assert "error:" in err


def test_build_worked_rational_coefficients(capsys):
    code, rep, _ = run_cli(capsys, "build", path("worked_2block_rational.json"))
    assert code == 0
    assert rep["build"]["certified"] is True
    assert rep["validation"]["passed"] is True
    h0 = rep["build"]["h"][0]
    assert {"coord": 1, "exponents": [1, 1], "num": 12500, "den": 3979} in h0
    p0 = rep["build"]["p"][0]
    assert {"coord": 0, "exponents": [0, 2], "num": 1, "den": 1} in p0
    identity_records = [
        {"coord": 1, "exponents": [0, 1], "num": 1, "den": 1},
        {"coord": 0, "exponents": [1, 0], "num": 1, "den": 1},
    ]
    assert sorted(rep["reduction"]["h_prime"][0], key=str) == sorted(identity_records, key=str)
    assert rep["exit_code"] == 0


def test_build_reports_are_bit_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["build", path("worked_2block_rational.json"), "--out", str(out_a)]) == 0
    assert cli.main(["build", path("worked_2block_rational.json"), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_forced_strictsub_reduction_shear(capsys):
    code, rep, _ = run_cli(capsys, "reduce", path("strictsub_linear_rational.json"))
    assert code == 0
    assert rep["build"]["certified"] is False
    shear = rep["reduction"]["h_prime"][0]
    assert {"coord": 0, "exponents": [0, 1], "num": -1000, "den": 233} in shear
    assert rep["reduction"]["certified_exponents"]["1"] == {"num": -3, "den": 5}


def test_eval_float_worked(capsys):
    code, rep, _ = run_cli(
        capsys, "eval", path("worked_2block.json"), "--samples", "300"
    )
    assert code == 0
    ev = rep["evaluation"]
    assert ev["samples"] == 300
    assert ev["max_residual"] <= 1e-11
    slope = ev["order_of_contact"][0]["slope"]
    assert 3.5 <= slope <= 4.5


def test_verify_worked_rational_full(capsys):
    code, rep, _ = run_cli(capsys, "verify", path("worked_2block_rational.json"))
    assert code == 0
    v = rep["verification"]
    assert v["uniqueness"]["ok"] and v["uniqueness"]["tag"] == "sub-resonance"
    assert v["uniqueness_resonance"]["ok"]
    assert v["pinned_rebuild"]["ok"]
    assert v["flag_preservation"]["ok"]
    assert v["centralizer"]["ok"] and v["centralizer"]["tag"] == "resonance"


def test_verify_noncommuting_aborts_with_code_4(capsys):
    code, rep, err = run_cli(capsys, "verify", path("noncommuting.json"))
    assert code == 4
    assert rep["verification"]["aborted"]["stage"] == "commutation"
    assert "commut" in err


def test_all_scalar_includes_linearization(capsys):
    code, rep, _ = run_cli(capsys, "all", path("scalar_quadratic.json"))
    assert code == 0
    assert rep["verification"]["linearization"]["ok"]
    assert rep["verification"]["centralizer"]["ok"]


def test_parse_errors_exit_5(tmp_path, capsys):
    assert cli.main(["build", str(tmp_path / "missing.json")]) == 5
    bad = tmp_path / "bad.json"
    bad.write_text('{"spectrum": [,]}')
    assert cli.main(["build", str(bad)]) == 5
    err = capsys.readouterr().err
    assert "missing.json" in err and "bad.json:1:" in err


def test_semantic_parse_error_names_path(tmp_path, capsys):
    raw = json.loads(Path(path("scalar_quadratic.json")).read_text())
    raw["spectrum"]["chi"][0] = {"num": 1, "den": 2}
    twisted = tmp_path / "positive_rate.json"
    twisted.write_text(json.dumps(raw))
    code = cli.main(["build", str(twisted)])
    err = capsys.readouterr().err
    assert code == 5
    assert "spectrum" in err


def _edited_instance(tmp_path, name, edit):
    """A copy of a shipped instance with `edit` applied to its JSON."""
    raw = json.loads(Path(path(name)).read_text())
    edit(raw)
    out = tmp_path / name
    out.write_text(json.dumps(raw))
    return str(out)


def _set(*keys, value):
    def edit(raw):
        for key in keys[:-1]:
            raw = raw.setdefault(key, {})
        raw[keys[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, flags, field",
    [
        pytest.param(None, ["--tol", "0"], "tol", id="flag-tol"),
        pytest.param(None, ["--kmax", "0"], "k_max", id="flag-kmax"),
        pytest.param(None, ["--samples", "-5"], "options.samples", id="flag-samples"),
        pytest.param(None, ["--radius", "0"], "radius", id="flag-radius"),
        pytest.param(_set("options", "tol", value="x"), [], "options.tol", id="tol"),
        pytest.param(_set("options", "samples", value="many"), [], "options.samples", id="samples"),
        pytest.param(_set("options", "seed", value="a"), [], "options.seed", id="seed"),
        pytest.param(_set("options", "force", value="no"), [], "options.force", id="force"),
        pytest.param(_set("sigma", value="x"), [], "sigma", id="sigma"),
        pytest.param(_set("xi", value="x"), [], "xi", id="xi"),
        pytest.param(
            _set("commuting", "regularity", value=5), [], "commuting.regularity", id="regularity"
        ),
    ],
)
def test_invalid_inputs_exit_5_naming_the_field(tmp_path, capsys, edit, flags, field):
    name = "three_cycle.json"
    target = _edited_instance(tmp_path, name, edit) if edit else path(name)
    code = cli.main(["all", target, *flags])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


def _set_record(field, value):
    """Set `field` of the first coefficient record of fiber 0."""

    def edit(raw):
        raw["fibers"][0][0][field] = value

    return edit


RECORD = "$.fibers[0][0]"


@pytest.mark.parametrize(
    "name, edit, field",
    [
        pytest.param("three_cycle.json", _set_record("num", 46.5), f"{RECORD}.num", id="num-float"),
        pytest.param("three_cycle.json", _set_record("num", True), f"{RECORD}.num", id="num-bool"),
        pytest.param("three_cycle.json", _set_record("den", 125.0), f"{RECORD}.den", id="den-float"),
        pytest.param("three_cycle.json", _set_record("den", 0), f"{RECORD}.den", id="den-zero"),
        pytest.param("three_cycle.json", _set_record("coord", 0.9), f"{RECORD}.coord", id="coord-float"),
        pytest.param("three_cycle.json", _set_record("coord", "1"), f"{RECORD}.coord", id="coord-str"),
        pytest.param(
            "three_cycle.json", _set_record("exponents", [True, False]), f"{RECORD}.exponents", id="exponents-bool"
        ),
        pytest.param("worked_2block.json", _set_record("value", "0.5"), f"{RECORD}.value", id="value-str"),
        pytest.param("worked_2block.json", _set_record("value", "nan"), f"{RECORD}.value", id="value-nan-str"),
        pytest.param("worked_2block.json", _set_record("value", True), f"{RECORD}.value", id="value-bool"),
        pytest.param("worked_2block.json", _set_record("value", math.nan), f"{RECORD}.value", id="value-nan"),
        pytest.param("worked_2block.json", _set_record("value", -math.inf), f"{RECORD}.value", id="value-inf"),
        pytest.param("worked_2block.json", _set_record("value", 10**400), f"{RECORD}.value", id="value-huge-int"),
        pytest.param(
            "three_cycle.json", _set("base", "permutation", value=[1.5, 2, 0]), "base.permutation", id="perm-float"
        ),
        pytest.param(
            "three_cycle.json", _set("base", "permutation", value=["1", 2, 0]), "base.permutation", id="perm-str"
        ),
        pytest.param("three_cycle.json", _set("base", "permutation", value=3), "base.permutation", id="perm-int"),
        pytest.param(
            "three_cycle.json",
            _set("commuting", "permutation", value=[1.0, 2, 0]),
            "commuting.permutation",
            id="commuting-perm-float",
        ),
        pytest.param("three_cycle.json", _set("base", "p", value=3.0), "base.p", id="p-float"),
        pytest.param("three_cycle.json", _set("dims", value=[True, True]), "dims", id="dims-bool"),
        pytest.param(
            "three_cycle.json", _set("regularity", "n_taylor", value=True), "regularity.n_taylor", id="n-taylor-bool"
        ),
        pytest.param(
            "three_cycle.json",
            _set("commuting", "regularity", value={"n_taylor": True}),
            "commuting.regularity.n_taylor",
            id="commuting-n-taylor-bool",
        ),
        pytest.param(
            "three_cycle.json", _set("regularity", "alpha", value={"num": True}), "regularity.alpha.num", id="alpha-bool"
        ),
        pytest.param("three_cycle.json", _set("spectrum", "chi", value=5), "spectrum.chi", id="chi-int"),
    ],
)
def test_bad_json_types_exit_5_naming_the_path(tmp_path, capsys, name, edit, field):
    """A value of the wrong JSON type is refused, never coerced."""
    code = cli.main(["all", _edited_instance(tmp_path, name, edit)])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f" {field}: " in captured.err


@pytest.mark.parametrize("mode", [None, "float"])
@pytest.mark.parametrize("name", ["strictsub_linear.json", "strictsub_linear_rational.json"])
def test_strictsub_linear_validation_details(capsys, name, mode):
    """The contraction detail is the certificate's line alone."""
    code, rep, _ = run_cli(capsys, "all", path(name), *(["--mode", mode] if mode else []))
    assert code == 0
    failed = {c["name"]: c["detail"] for c in rep["validation"]["checks"] if not c["ok"]}
    assert failed == {
        "block-diagonal": "point 0: off-block entry at (0, 1)",
        "contraction": "point 0: certificate 1.07308 exceeds xi 0.95",
    }


@pytest.mark.parametrize("regularity", [{"n_taylor": 3}, None])
def test_commuting_regularity_defaults_to_the_instance(tmp_path, capsys, regularity):
    def edit(raw):
        if regularity is None:
            del raw["commuting"]["regularity"]
        else:
            raw["commuting"]["regularity"] = regularity

    target = _edited_instance(tmp_path, "three_cycle.json", edit)
    inst = load_instance(target)
    assert (inst.commuting_n, inst.commuting_alpha) == (inst.n_taylor, inst.alpha)
    code, rep, _ = run_cli(capsys, "verify", target)
    assert code == 0 and rep["verification"]["centralizer"]["ok"]


def test_mode_overrides(capsys):
    code, rep, _ = run_cli(
        capsys, "build", path("worked_2block_rational.json"), "--mode", "float"
    )
    assert code == 0 and rep["mode"] == "float"
    h0 = rep["build"]["h"][0]
    rec = next(r for r in h0 if r["coord"] == 1 and r["exponents"] == [1, 1])
    assert rec["value"] == pytest.approx(12500 / 3979, rel=1e-9)

    code = cli.main(["build", path("worked_2block.json"), "--mode", "rational"])
    capsys.readouterr()
    assert code == 5


def test_lift_and_seed_flags_reach_report(capsys):
    code, rep, _ = run_cli(
        capsys,
        "build",
        path("worked_2block_rational.json"),
        "--lift",
        "seeded",
        "--seed",
        "3",
    )
    assert code == 0
    assert rep["build"]["lift"] == {"kind": "seeded", "seed": 3}
    assert rep["seed"] == 3


def test_timings_flag(capsys):
    _, rep, _ = run_cli(capsys, "constants", path("scalar_quadratic.json"))
    assert rep["timings"] is None
    _, rep, _ = run_cli(capsys, "constants", path("scalar_quadratic.json"), "--timings")
    assert set(rep["timings"]) == {"constants"} and rep["timings"]["constants"] >= 0


def test_radius_above_sigma_rejected(capsys):
    code = cli.main(["eval", path("worked_2block.json"), "--radius", "0.5"])
    err = capsys.readouterr().err
    assert code == 5
    assert "radius" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nsnf.cli", "constants", path("scalar_quadratic.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["constants"]["d"] == 1


def test_residual_sweep_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "residual_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--rungs", "2", "--samples", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().splitlines()[-1]
    assert line.startswith("observed jet-gap order across the ladder: ")
    # worked_2block.json has N = 3, so the jet gap shrinks like radius^4
    assert 3.5 <= float(line.rsplit(" ", 1)[1]) <= 4.5


def test_lift_spread_script_runs():
    script = Path(__file__).resolve().parent.parent / "scripts" / "lift_spread.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--seeds", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "3 builds: all pairwise transitions are sub-resonance, as required"
    assert any(line.startswith("P: ") for line in lines)


def test_parser_is_built_once_and_flags_do_not_leak(capsys):
    inst = path("worked_2block_rational.json")
    code, rep, _ = run_cli(capsys, "build", inst, "--mode", "float", "--timings")
    assert code == 0 and rep["mode"] == "float" and rep["timings"] is not None
    code, rep, _ = run_cli(capsys, "build", inst)
    assert code == 0 and rep["mode"] == "rational" and rep["timings"] is None
    assert cli._parser() is cli._parser()
    args = cli._parser().parse_args(["eval", inst, "--seed", "3", "--force"])
    assert args.seed == 3 and args.force
    args = cli._parser().parse_args(["eval", inst])
    assert args.seed is None and not args.force
