"""The report writer against the standard library's pretty-printer: the
same bytes as json.dumps(..., sort_keys=True, indent=2) plus a newline on
arbitrary trees and on every report the shipped instances produce, to a
file or to stdout, in one chunk or in many."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsnf import cli, report
from nsnf.report import dump_report

from fixtures import workloads_module

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"

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


def _stdlib(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def _dumped(tree) -> str:
    """What dump_report writes to stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        dump_report(tree)
    return sink.getvalue()


@given(trees)
def test_writer_matches_stdlib(tree):
    assert _dumped(tree) == _stdlib(tree)


def test_writer_edge_values():
    tree = {
        "bools": [True, False, 1, 0],
        "ints": [2**64 + 1, -(2**70), 0],
        "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16],
        "records": [{"b": True, "a": [1, 2]}, {"a": [], "b": 0}],
        "mixed": [1, "1", None, [], {}, [True]],
        "é\"\n": {},
    }
    assert _dumped(tree) == _stdlib(tree)
    with pytest.raises(TypeError):
        _dumped({"x": object()})


def test_dump_report_writes_text_and_newline(tmp_path, capsys):
    tree = {"b": [1, 2], "a": {"c": None}}
    out = tmp_path / "r.json"
    dump_report(tree, str(out))
    dump_report(tree)
    assert out.read_text() == _stdlib(tree)
    assert capsys.readouterr().out == _stdlib(tree)


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
    assert text == _stdlib(json.loads(text))


# -- streaming in chunks ------------------------------------------------


class _Writes(io.StringIO):
    """A text sink that counts the writes it receives."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _dump_to_both(tree, tmp_path) -> int:
    """dump_report to a file and to stdout, each checked against json.dumps;
    the number of writes stdout received."""
    out = tmp_path / "r.json"
    dump_report(tree, str(out))
    assert out.read_text() == _stdlib(tree)
    sink = _Writes()
    with contextlib.redirect_stdout(sink):
        dump_report(tree)
    assert sink.getvalue() == _stdlib(tree)
    return sink.writes


def _records(count: int, start: int = 0) -> list[dict]:
    """Rational coefficient records shaped as polymap.to_records writes them."""
    return [
        {"coord": i % 6, "exponents": [i % 3, 0, i % 5, 1, 0, 2], "num": 2**200 + i, "den": 3**90 + i}
        for i in range(start, start + count)
    ]


@pytest.mark.parametrize("count", [1500, 2 * report.CHUNK_RECORDS])
def test_dump_report_streams_stdlib_bytes(tmp_path, count):
    """Long record lists go out in chunks of CHUNK_RECORDS records, to a
    file and to stdout, and the bytes stay those of json.dumps."""
    tree = {"h": [_records(count), []], "mode": "rational", "z": {"n": 1}}
    assert _dump_to_both(tree, tmp_path) == count // report.CHUNK_RECORDS + 1


def test_dump_report_flushes_inside_nested_record_lists(tmp_path):
    """A flush inside a record list nested in a record, and one in the
    outer list between records that each hold a record list."""
    chunk = report.CHUNK_RECORDS
    tree = {
        "deep": [{"name": k, "terms": _records(chunk + 188, k)} for k in range(2)],
        "wide": [{"name": k, "terms": _records(2, k)} for k in range(chunk + 3)],
    }
    assert _dump_to_both(tree, tmp_path) == 4


@given(trees)
def test_chunked_writer_matches_stdlib(tree):
    """Random trees streamed with a flush after every second record."""
    saved = report.CHUNK_RECORDS
    try:
        report.CHUNK_RECORDS = 2
        text = _dumped(tree)
    finally:
        report.CHUNK_RECORDS = saved
    assert text == _stdlib(tree)


def test_dump_report_peak_memory_is_bounded(tmp_path):
    """Streaming keeps the writer's traced peak under 1 MiB on a report of
    more than 4 MiB of text, a quarter of the text alone."""
    tree = {"h": [_records(6000, 6000 * x) for x in range(3)], "mode": "rational"}
    size = len(_stdlib(tree))
    assert size >= 4 * 2**20
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        dump_report(tree, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == size
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB for {size / 2**20:.2f} MiB of text"


def test_dump_report_refuses_unsupported_values(tmp_path):
    with pytest.raises(TypeError):
        dump_report({"x": object()}, str(tmp_path / "r.json"))


def _ladder_rung(name: str, tmp_path: Path, monkeypatch) -> Path:
    """The benchmark's ladder rung `name` at seed 0, as an instance file."""
    workloads = workloads_module(monkeypatch)
    (rung,) = [r for r in workloads.ladder_rungs() if r["name"] == name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(workloads.ladder_instance(rung, 0)))
    return path


def test_cli_report_same_bytes_to_file_and_stdout(tmp_path, monkeypatch):
    """`nsnf reduce` of ladder rung d33_p3_n4, a report of several chunks,
    writes the same bytes with --out as on stdout."""
    path = _ladder_rung("d33_p3_n4", tmp_path, monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["reduce", str(path), "--out", str(out)]) == 0
    sink = _Writes()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["reduce", str(path)]) == 0
    assert sink.writes > 1
    assert out.read_text() == sink.getvalue()
    assert sink.getvalue() == _stdlib(json.loads(sink.getvalue()))
