"""The report writer against the standard library's pretty-printer: the
same bytes as json.dumps(..., sort_keys=True, indent=2) on arbitrary
trees and on every report the shipped instances produce."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import cli
from nsnf.report import dump_report, report_text

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

keys = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é", "☃", " ", "a\"b", "num"]),
)
floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-05, 1e16, 0.1]),
)
big_ints = st.integers(min_value=-(2**300), max_value=2**300)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), big_ints, floats, keys)
int_lists = st.lists(st.one_of(st.integers(), big_ints), max_size=5)


@st.composite
def record_lists(draw, values):
    """Nonempty dicts that all share one key set."""
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    rows = st.fixed_dictionaries({k: values for k in names})
    return draw(st.lists(rows, max_size=4))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        int_lists,
        st.lists(st.booleans(), max_size=4),
        record_lists(st.one_of(scalars, int_lists)),
        record_lists(children),
    )


trees = st.recursive(scalars, _containers, max_leaves=25)


@given(trees)
def test_writer_matches_stdlib(tree):
    assert report_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_writer_edge_values():
    tree = {
        "bools": [True, False, 1, 0],
        "ints": [2**64 + 1, -(2**70), 0],
        "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16],
        "records": [{"b": True, "a": [1, 2]}, {"a": [], "b": 0}],
        "mixed": [1, "1", None, [], {}, [True]],
        "é\"\n": {},
    }
    assert report_text(tree) == json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        report_text({"x": object()})


def test_dump_report_writes_text_and_newline(tmp_path, capsys):
    tree = {"b": [1, 2], "a": {"c": None}}
    out = tmp_path / "r.json"
    dump_report(tree, str(out))
    dump_report(tree)
    expected = json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert out.read_text() == expected
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("mode", [None, "float"])
@pytest.mark.parametrize("name", sorted(p.name for p in INSTANCES.glob("*.json")))
def test_shipped_reports_are_stdlib_bytes(tmp_path, capsys, name, mode):
    out = tmp_path / "report.json"
    argv = ["all", str(INSTANCES / name), "--out", str(out)]
    if mode:
        argv += ["--mode", mode]
    cli.main(argv)
    capsys.readouterr()
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
