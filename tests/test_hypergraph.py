import pytest

from shapsim import Hypergraph, HypergraphFormatError, load_hypergraph, parse_hypergraph
from shapsim.builtin_games import collab_stand_in_hypergraph
from oracles import hypergraph_text


def test_parse_basic():
    h = parse_hypergraph("# collab\nn 4\n1.5 0 1\n2 1 2 3\n")
    assert h.n == 4
    assert (frozenset({0, 1}), 1.5) in h.edges
    assert (frozenset({1, 2, 3}), 2.0) in h.edges


def test_duplicate_edges_merge_by_weight_sum():
    h = parse_hypergraph("n 3\n1 0 1\n0.5 1 0\n")
    assert h.edges == ((frozenset({0, 1}), 1.5),)


def test_comments_and_blank_lines_ignored():
    h = parse_hypergraph("\n# header\nn 2\n# edge below\n1 0 1   # trailing\n\n")
    assert h.n == 2 and len(h.edges) == 1


def test_missing_header_rejected():
    with pytest.raises(HypergraphFormatError):
        parse_hypergraph("1 0 1\n")


def test_out_of_range_vertex_has_line_number():
    with pytest.raises(HypergraphFormatError) as exc:
        parse_hypergraph("n 3\n1 0 1\n1 0 9\n")
    assert "line 3" in str(exc.value)


def test_negative_weight_rejected():
    with pytest.raises(HypergraphFormatError):
        parse_hypergraph("n 3\n-1 0 1\n")


def test_bad_weight_token_rejected():
    with pytest.raises(HypergraphFormatError) as exc:
        parse_hypergraph("n 3\nx 0 1\n")
    assert "line 2" in str(exc.value)


def test_roundtrip_through_text(tmp_path):
    h = collab_stand_in_hypergraph(20)
    path = tmp_path / "collab.hg"
    path.write_text(hypergraph_text(h), encoding="utf-8")
    again = load_hypergraph(path)
    assert again.n == h.n
    assert again.edges == h.edges


def test_padding_adds_isolated_vertices():
    h = Hypergraph(n=3, edges=((frozenset({0, 1}), 1.0),))
    padded = h.padded(6)
    assert padded.n == 6
    assert padded.edges == h.edges
    assert padded.degree(5) == 0.0


def test_merge_in_constructor():
    h = Hypergraph(n=3, edges=((frozenset({0, 1}), 1.0), (frozenset({0, 1}), 2.0)))
    assert h.edges == ((frozenset({0, 1}), 3.0),)


def test_empty_edge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(n=2, edges=((frozenset(), 1.0),))


def test_repo_data_file_matches_constructor():
    import pathlib

    data = pathlib.Path(__file__).resolve().parent.parent / "data" / "collab_reconstruction.hg"
    h = load_hypergraph(data)
    assert h.edges == collab_stand_in_hypergraph(h.n).edges
