import os

from hypothesis import given, settings
from hypothesis import strategies as st

from topodyn.report import (
    EXIT_CODES,
    FAIL,
    PASS,
    RESOLUTION_LIMITED,
    Report,
    parse_report,
)


def test_exit_codes_map():
    assert EXIT_CODES[PASS] == 0
    assert EXIT_CODES[FAIL] == 1
    assert EXIT_CODES[RESOLUTION_LIMITED] == 2


def test_header_order_and_verdict():
    rep = Report(operation="x", alpha=1, verdict=FAIL)
    assert rep.verdict == FAIL
    assert rep.exit_code == 1
    text = rep.to_text()
    # insertion order is the render order
    assert text.index("operation") < text.index("alpha") < text.index("verdict")


def test_default_verdict_is_pass():
    rep = Report(operation="x")
    assert rep.verdict == PASS
    assert rep.exit_code == 0


def test_unknown_verdict_fails_closed():
    rep = Report(verdict="garbled")
    assert rep.exit_code == 1


def test_table_rendering_and_parse_roundtrip():
    rep = Report(operation="demo", count=2, verdict=PASS)
    rep.add_table("pairs", ["a", "b"], [[1, 2], [3, 4]])
    rep.add_table("names", ["n"], [["left"], ["right"]])
    back = parse_report(rep.to_text())
    assert back.header["operation"] == "demo"
    assert back.header["count"] == "2"
    assert set(back.tables) == {"pairs", "names"}
    cols, rows = back.tables["pairs"]
    assert cols == ["a", "b"]
    assert rows == [["1", "2"], ["3", "4"]]


def test_float_values_render_full_precision():
    rep = Report(value=0.1 + 0.2)
    assert "0.30000000000000004" in rep.to_text()


def test_comma_in_column_name_round_trips():
    rep = Report()
    rep.add_table("t", ["a,b", "c"], [["1,5", "x"]])
    assert rep.to_text() == '\n[table t]\n"a,b",c\n"1,5",x\n'
    assert parse_report(rep.to_text()).tables["t"] == (["a,b", "c"],
                                                      [["1,5", "x"]])


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.text(), min_size=k, max_size=k),
    st.lists(st.lists(st.text(), min_size=k, max_size=k), max_size=5))))
def test_tables_round_trip_any_cell_text(table):
    columns, rows = table
    rep = Report(operation="round-trip", verdict=PASS)
    rep.add_table("cells", columns, rows)
    rep.add_table("after", ["k"], [["v"]])
    back = parse_report(rep.to_text())
    assert back.header == {"operation": "round-trip", "verdict": PASS}
    assert back.tables == {"cells": (columns, rows), "after": (["k"], [["v"]])}


def test_write_atomic(tmp_path):
    rep = Report(operation="w", verdict=PASS)
    rep.add_table("t", ["k"], [["v"]])
    path = tmp_path / "out.txt"
    rep.write(str(path))
    assert path.read_text() == rep.to_text()
    # no stray temp files left behind
    assert os.listdir(tmp_path) == ["out.txt"]


def test_set_overwrites_header():
    rep = Report(verdict=PASS)
    rep.set("verdict", FAIL)
    assert rep.exit_code == 1
