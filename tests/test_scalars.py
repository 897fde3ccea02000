"""The scalar policies at their boundary: names and policies are one mode,
reports write the name, unknown modes are refused, the default tolerance
is FLOAT_TOL, and a matrix is exact when any of its entries is."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import cli, linsolve, scalars
from nsnf.instance import load_instance
from nsnf.normal_form import build_taylor
from nsnf.polymap import FLOAT, FLOAT_TOL, RATIONAL, GradedDims, PolyMap, agrees, identity_map
from nsnf.report import assemble_report, build_json, dump_report

D11 = GradedDims([1, 1])
INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.mark.parametrize("policy, name", [(RATIONAL, "rational"), (FLOAT, "float")])
def test_a_map_built_from_the_name_equals_one_built_from_the_policy(policy, name):
    coeffs = {(0, (1, 0)): 1, (1, (0, 2)): -3}
    by_name = PolyMap(D11, D11, 2, name, coeffs)
    assert by_name == PolyMap(D11, D11, 2, policy, coeffs)
    assert by_name.mode is policy and by_name.mode == name
    assert identity_map(D11, 2, name) == identity_map(D11, 2, policy)
    assert scalars.policy(name) is policy and scalars.policy(policy) is policy


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_reports_write_the_mode_as_its_name(tmp_path, mode):
    inst = load_instance(str(INSTANCES / "worked_2block_rational.json")).with_mode(mode)
    nf = build_taylor(inst.ext, inst.spec, inst.n_taylor, inst.alpha)
    sections = {"build": build_json(nf)}
    out = tmp_path / "report.json"
    dump_report(assemble_report(inst.digest, 0, inst.mode, sections), str(out))
    report = json.loads(out.read_text())
    assert report["mode"] == mode and report["build"]["mode"] == mode
    text = out.read_text()
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="^unknown scalar mode 'ball'$"):
        PolyMap(D11, D11, 1, "ball", {})
    with pytest.raises(ValueError, match="^unknown scalar mode"):
        PolyMap(D11, D11, 1, ["rational"], {})


def test_unknown_mode_exits_5_from_the_parser(tmp_path, capsys):
    raw = json.loads((INSTANCES / "worked_2block_rational.json").read_text())
    raw["mode"] = "ball"
    bad = tmp_path / "ball.json"
    bad.write_text(json.dumps(raw))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["build", str(bad)]) == 5
    assert "mode: expected 'rational' or 'float', got 'ball'" in capsys.readouterr().err


@st.composite
def float_maps(draw):
    values = st.floats(min_value=-2e-8, max_value=2e-8, allow_nan=False)
    keys = [(0, (1, 0)), (1, (0, 1)), (0, (0, 2)), (1, (1, 1))]
    coeffs = {k: draw(values) for k in draw(st.lists(st.sampled_from(keys), unique=True))}
    return PolyMap(D11, D11, 2, FLOAT, coeffs)


@given(float_maps(), float_maps(), st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e3]))
def test_default_tolerance_is_float_tol(a, b, scale):
    assert a.vanishes(scale=scale) == a.vanishes(FLOAT_TOL, scale)
    assert a.vanishes() == a.vanishes(FLOAT_TOL)
    assert agrees(a, b, scale=scale) == agrees(a, b, FLOAT_TOL, scale)
    assert agrees(a, b, scale=a) == agrees(a, b, FLOAT_TOL, a)


def test_default_tolerance_boundary():
    bound = FLOAT_TOL * 4.0
    at = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): bound})
    above = PolyMap(D11, D11, 1, FLOAT, {(0, (1, 0)): math.nextafter(bound, 1.0)})
    assert at.vanishes(scale=4.0) and not above.vanishes(scale=4.0)
    tiny = PolyMap(D11, D11, 1, RATIONAL, {(0, (1, 0)): F(1, 10**40)})
    assert not tiny.vanishes(scale=1e9)
    assert not agrees(tiny, tiny.sub(tiny))


# -- one policy per matrix ---------------------------------------------------

INT_ZERO_FIRST = [[0, F(1, 3)], [F(1), F(1, 3)]]


def _exact(rows):
    return all(type(v) is F for row in rows for v in row)


def test_int_zero_first_entry_is_still_exact():
    inv = linsolve.invert(INT_ZERO_FIRST)
    assert inv == [[F(-1), F(1)], [F(3), F(0)]] and _exact(inv)
    x = linsolve.solve(INT_ZERO_FIRST, [1, 0])
    assert x == [F(-1), F(3)] and _exact([x])
    cols = linsolve.solve_columns(INT_ZERO_FIRST, [[1, 0], [0, 1]])
    assert cols == inv and _exact(cols)
    # ints among the exact entries are exact too, even as pivots
    x = linsolve.solve([[2, F(1, 3)], [1, 1]], [1, 0])
    assert x == [F(3, 5), F(-3, 5)] and _exact([x])


def test_all_int_matrix_keeps_the_float_path():
    inv = linsolve.invert([[0, 1], [2, 3]])
    assert inv == [[-1.5, 0.5], [1.0, 0.0]]
    assert all(type(v) is float for row in inv for v in row)


def test_exact_division_skips_zero_values():
    # a zero value gives the policy's exact zero with no division, so even
    # a zero divisor raises nothing there; an int zero comes back exact
    got = RATIONAL.divide([0, F(0), F(3)], [F(0), F(2), F(4)])
    assert got == [F(0), F(0), F(3, 4)] and _exact([got])


def test_float_division_keeps_the_sign_of_zero_quotients():
    got = FLOAT.divide([0.0, -0.0, 0.0, -0.0, 1.0], [2.0, 2.0, -2.0, -2.0, -4.0])
    assert [math.copysign(1.0, v) for v in got] == [1.0, -1.0, -1.0, 1.0, -1.0]
    assert got[-1] == -0.25


def test_exact_solve_returns_exact_zeros_for_zero_entries():
    # the right-hand side's zeros stay zero through the replay
    x = linsolve.solve([[F(2), F(0)], [F(0), F(3)]], [0, F(1)])
    assert x == [F(0), F(1, 3)] and _exact([x])
