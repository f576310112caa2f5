"""The CLI's table emitter against the json.dumps renderer of tests/oracles.py, byte for byte."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symppt import cli
from symppt.cli import Table, main

from oracles import render_reference
from test_golden import argv_of, load_cases

FORMATS = ("csv", "json")

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 1e-300, 5e-324, -1e308, 1 / 3, 0.1 + 0.2, 1e16, 123456789012.5, math.nan, math.inf, -math.inf]
)
texts = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "/", "%", "%s", "é", "☃", "\U0001f600", "\x00\x1f\x7f", 'quote " and \\ back', "tab\tnew\nline"]
)
fractions = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    fractions,
    texts,
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def tables(draw):
    columns = tuple(draw(st.lists(texts, max_size=5, unique=True)))
    rows = draw(st.lists(st.tuples(*[scalars] * len(columns)), max_size=4))
    return Table(
        header=draw(st.dictionaries(texts, values, max_size=4)),
        key=draw(st.none() | texts.filter(bool)),
        columns=columns,
        rows=rows,
        trailer=draw(st.dictionaries(texts, values, max_size=3)),
        csv_columns=draw(st.just(()) | st.lists(texts, min_size=1, max_size=5).map(tuple)),
    )


EDGE_CELLS = (
    -0.0, 1e-300, 5e-324, math.nan, math.inf, -math.inf, np.float64(1 / 3), np.float64(-0.0),
    Fraction(10**40 + 1, 3**60), Fraction(-7, 1), True, False, 0, -(10**30), None,
    "é☃\U0001f600", "\x00\x1f\x7f ", "%s %d %%",
)
EDGE_TABLES = {
    "empty": Table({}),
    "empty_with_key": Table({}, "rows"),
    "empty_rows": Table({"n": 3}, "rows", ("a", "b"), []),
    "no_columns": Table({"n": 3}, "rows", (), [(), ()]),
    "edge_cells": Table({}, "rows", tuple(f"c{i}" for i in range(len(EDGE_CELLS))), [EDGE_CELLS]),
    "nested_header": Table(
        {
            "none": None,
            "interval": [0.9677419354838709, 1 / 3],
            "argmin": {"theta": math.pi, "phi": np.float64(0.0)},
            "tuple": (1e-300, Fraction(1, 3), ("é", [])),
            "empty_list": [],
            "empty_dict": {},
            "deep": {"a": [{"b": [None, True, -0.0]}]},
        },
    ),
    "key_in_header_and_trailer": Table({"x": 1, "rows": 2, "y": 3}, "rows", ("p",), [(0.5,)], {"x": 4.0}),
    "csv_columns": Table({"n": 1}, "entries", ("v", "m"), [(Fraction(1, 3), 2)], {"t": 1.0}, ("value", "mult")),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(EDGE_TABLES))
def test_edge_tables_match_reference(name, fmt):
    table = EDGE_TABLES[name]
    assert cli._render(table, fmt) == render_reference(table, fmt)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(table=tables())
@example(table=EDGE_TABLES["edge_cells"])
def test_random_tables_match_reference(table):
    for fmt in FORMATS:
        assert cli._render(table, fmt) == render_reference(table, fmt)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), object(), {1, 2}, b"bytes", 1j])
def test_unsupported_json_values_raise_type_error(value):
    table = Table({"x": value})
    with pytest.raises(TypeError):
        render_reference(table, "json")
    with pytest.raises(TypeError):
        cli._render(table, "json")


@pytest.mark.parametrize("name", sorted(load_cases()))
def test_golden_tables_match_reference(name):
    """Every golden case's Table, compared exactly: test_golden tolerates rounding noise."""
    args = cli.build_parser().parse_args(argv_of(load_cases()[name]))
    table = args.func(args)
    assert cli._render(table, args.format) == render_reference(table, args.format)


def test_json_never_reaches_the_pure_python_encoder(monkeypatch, capsys):
    """json.dumps(indent=...) always builds its encoder with json.encoder._make_iterencode."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({}, indent=2)
    scan = ["scan", "--witness", "W9", "--k", "4", "--p-from", "0.99", "--p-to", "1", "--steps", "201"]
    for argv in (scan, ["witness", "W5", "--p", "0.96774"]):
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)
