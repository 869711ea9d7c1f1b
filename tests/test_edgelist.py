from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given

from boxbc import (
    Graph,
    GraphError,
    cycle,
    format_edge_list,
    graph_from_edges,
    load_graph,
    parse_edge_list,
    save_graph,
)
from strategies import connected_graphs


def test_parse_with_header():
    g = parse_edge_list("n 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g == cycle(4)


def test_parse_without_header():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.vertex_count == 3


def test_parse_comments_and_blanks():
    text = "# a square\n\nn 4\n0 1\n# middle\n1 2\n2 3\n 3 0 \n"
    assert parse_edge_list(text) == cycle(4)


def test_parse_header_only_counts_isolated():
    # A header above the max id is a density error, not silent padding.
    with pytest.raises(GraphError, match="not dense: 2"):
        parse_edge_list("n 3\n0 1\n")


def test_parse_errors():
    with pytest.raises(GraphError, match="line 1"):
        parse_edge_list("0 x\n")
    with pytest.raises(GraphError, match="negative"):
        parse_edge_list("0 -1\n")
    with pytest.raises(GraphError, match="expected 'u v'"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphError, match="header"):
        parse_edge_list("n 3 7\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("n 2\n0 1\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("0 0\n")


def test_header_after_edges_is_an_edge_line():
    # 'n 2' past the first edge no longer parses as a header.
    with pytest.raises(GraphError):
        parse_edge_list("0 1\nn 2\n")


def test_density_gap_is_named():
    with pytest.raises(GraphError, match="not dense: 1"):
        parse_edge_list("0 2\n")


def test_large_header_fails_before_allocating():
    # Range and density are decided from the ids, so neither a large header
    # nor a large id allocates anything sized by the vertex count.
    cases = (
        ("n 200000\n0 1\n", "not dense: 2"),
        ("0 200000\n", "not dense: 1"),
        ("n 200000\n0 200000\n", "vertex id 200000 out of range"),
    )
    for text, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=message):
                parse_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (text, peak)


def test_empty_and_single():
    assert parse_edge_list("").vertex_count == 0
    assert parse_edge_list("n 1\n").vertex_count == 1
    assert parse_edge_list("n 0\n").vertex_count == 0


def test_format_is_sorted_with_header():
    g = graph_from_edges(3, [(2, 1), (0, 2)])
    assert format_edge_list(g) == "n 3\n0 2\n1 2\n"


@given(connected_graphs())
def test_roundtrip(g: Graph):
    assert parse_edge_list(format_edge_list(g)) == g


def test_file_roundtrip(tmp_path):
    g = cycle(5)
    target = tmp_path / "c5.el"
    save_graph(target, g)
    assert load_graph(target) == g
    assert target.read_text() == format_edge_list(g)
