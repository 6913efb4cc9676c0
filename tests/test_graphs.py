"""Graph layer: distances and girth against networkx, spectral projectors
against an eigenvector-basis oracle, and the two theorem reports."""

from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from conftest import GRAPH_SPECS, catalog_graph, max_abs_diff
from polyscheme import graphs
from polyscheme.errors import DenseLimitError, GraphStructureError, ParseError
from polyscheme.graphs import (
    Graph,
    UNREACHABLE,
    analyze_graph,
    distance_data,
    format_edge_list,
    girth,
    k_factor,
    k_factor_fraction,
    large_graph_report,
    moore_bound,
    parse_edge_list,
    spectral_projectors,
    verify_projector_entries,
)

# name -> (diameter, girth), hand-checked small cases
CATALOG_SHAPE = {
    "complete4": (1, 3),
    "cube": (3, 4),
    "cycle5": (2, 5),
    "cycle6": (3, 6),
    "hoffman-singleton": (2, 5),
    "paley13": (2, 3),
    "petersen": (2, 5),
    "triangular5": (2, 3),
}


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_distances_match_networkx(name):
    g = catalog_graph(name)
    dd = distance_data(g)
    oracle = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    for u in range(g.n):
        for v in range(g.n):
            assert dd.dist[u, v] == oracle[u][v]
    assert dd.diameter == CATALOG_SHAPE[name][0]


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_girth_matches_networkx(name):
    g = catalog_graph(name)
    assert girth(g) == nx.girth(to_networkx(g)) == CATALOG_SHAPE[name][1]


def test_girth_acyclic_is_none():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert girth(path) is None


def test_distance_data_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    dd = distance_data(g)
    assert not dd.is_connected()
    assert dd.dist[0, 2] == UNREACHABLE
    assert dd.diameter == 1


def test_petersen_class_sizes():
    dd = distance_data(catalog_graph("petersen"))
    assert tuple(int(np.count_nonzero(dd.dist == t)) for t in range(3)) == (10, 30, 60)
    assert int(dd.relation(2).sum()) == 60


def test_hoffman_singleton_certificate():
    # SRG(50, 7, 0, 1): triangle-free with A^2 + A - 6I = J pins the graph
    # parameters independently of any spectral code.
    g = catalog_graph("hoffman-singleton")
    assert g.n == 50 and g.regular_degree() == 7
    a = g.adjacency_matrix().a
    assert np.trace(a @ a @ a) == 0.0
    lhs = a @ a + a - 6.0 * np.eye(50)
    assert max_abs_diff(lhs, np.ones((50, 50))) == 0.0


@pytest.mark.parametrize("k, d, want", [
    (3, 1, 4),
    (7, 1, 8),
    (2, 2, 5),
    (3, 2, 10),
    (141, 2, 19882),
    (144, 2, 20737),
    (5, 0, 1),
])
def test_moore_bound_values(k, d, want):
    assert moore_bound(k, d) == want


def test_moore_bound_recurrence():
    # M(k, d) - M(k, d-1) counts the new layer k*(k-1)^(d-1).
    for k in (2, 3, 7, 10):
        for d in range(1, 6):
            assert moore_bound(k, d) - moore_bound(k, d - 1) == k * (k - 1) ** (d - 1)
    with pytest.raises(ValueError):
        moore_bound(0, 2)
    with pytest.raises(ValueError):
        moore_bound(3, -1)


def test_spectral_projectors_structure_errors():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphStructureError):
        spectral_projectors(path)
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(GraphStructureError):
        spectral_projectors(two_triangles)


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_projectors_match_eigenbasis_oracle(name):
    # Independent route: group eigh eigenvectors by cluster and form V V'.
    g = catalog_graph(name)
    family = spectral_projectors(g)
    w, vecs = np.linalg.eigh(g.adjacency_matrix().a)
    for value, proj in zip(family.spectrum.values, family.projectors):
        cols = vecs[:, np.abs(w - value) < 1e-6]
        assert cols.shape[1] == family.spectrum.multiplicity_of(value)
        assert max_abs_diff(cols @ cols.T, proj) < 1e-9


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_projector_family_identities(name):
    g = catalog_graph(name)
    family = spectral_projectors(g)
    n = g.n
    projs = [e.a for e in family.projectors]
    for i, ei in enumerate(projs):
        assert max_abs_diff(ei @ ei, ei) < 1e-7
        for ej in projs[i + 1:]:
            assert float(np.max(np.abs(ei @ ej))) < 1e-7
    assert max_abs_diff(sum(projs), np.eye(n)) < 1e-7
    rebuilt = sum(v * e for v, e in zip(family.spectrum.values, projs))
    assert max_abs_diff(rebuilt, g.adjacency_matrix()) < 1e-7


def test_k_factor_petersen():
    spec = spectral_projectors(catalog_graph("petersen")).spectrum
    assert abs(k_factor(spec, 1) - 5.0 / 3.0) < 1e-12
    assert abs(k_factor(spec, 2) + 2.0 / 3.0) < 1e-12
    assert k_factor_fraction(spec, 1) == Fraction(5, 3)
    assert k_factor_fraction(spec, 2) == Fraction(-2, 3)
    with pytest.raises(ValueError):
        k_factor(spec, 0)
    with pytest.raises(ValueError):
        k_factor(spec, 3)


def test_k_factor_fraction_irrational_spectrum():
    spec = spectral_projectors(catalog_graph("cycle5")).spectrum
    assert k_factor_fraction(spec, 1) is None


def test_projector_entries_petersen():
    rep = verify_projector_entries(catalog_graph("petersen"))
    assert rep.status == "pass"
    expected = rep.evidence["expected_entries"]
    assert [e["exact"] for e in expected] == ["-1/6", "1/15"]
    assert abs(expected[0]["value"] + 1.0 / 6.0) < 1e-12
    assert abs(expected[1]["value"] - 1.0 / 15.0) < 1e-12
    assert rep.evidence["max_deviation"] <= 1e-9


def test_projector_entries_cube():
    rep = verify_projector_entries(catalog_graph("cube"))
    assert rep.status == "pass"
    assert [e["exact"] for e in rep.evidence["expected_entries"]] == [
        "-3/8", "3/8", "-1/8"]


def test_projector_entries_hypothesis_failures():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    rep = verify_projector_entries(path)
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["summary"] == "not regular"

    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = verify_projector_entries(two_triangles)
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["summary"] == "not connected"

    # Triangular prism: 4 distinct eigenvalues but diameter 2.
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
            (0, 3), (1, 4), (2, 5)])
    rep = verify_projector_entries(prism)
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["distinct_eigenvalues"] == 4
    assert rep.evidence["diameter"] == 2


LARGE_GRAPH_FLOORS = {
    "petersen": 6,
    "hoffman-singleton": 42,
    "cycle5": 2,
    "cycle6": 1,
    "paley13": 6,
    "complete4": 3,
    "triangular5": 3,
}


@pytest.mark.parametrize("name", sorted(LARGE_GRAPH_FLOORS))
def test_large_graph_report_passes(name):
    g = catalog_graph(name)
    rep = large_graph_report(g)
    assert rep.status == "pass"
    assert rep.evidence["row_floor"] == LARGE_GRAPH_FLOORS[name]
    assert rep.evidence["min_forced_per_row"] >= LARGE_GRAPH_FLOORS[name]
    assert rep.evidence["n"] - rep.evidence["moore_bound"] == LARGE_GRAPH_FLOORS[name]


def test_large_graph_report_small_cube():
    # 8 vertices is within M(3, 2) = 10, so the size hypothesis fails.
    rep = large_graph_report(catalog_graph("cube"))
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["moore_bound"] == 10


def test_edge_list_round_trip():
    for name in ("petersen", "cycle6"):
        g = catalog_graph(name)
        assert parse_edge_list(format_edge_list(g)).neighbors == g.neighbors


def test_edge_list_comments_and_blanks_ignored():
    text = "# a triangle\n3 3\n\n0 1  # first edge\n1 2\n0 2#last\n"
    assert parse_edge_list(text).neighbors == ((1, 2), (0, 2), (0, 1))


def test_analyze_graph_refuses_before_distances(monkeypatch):
    def fail(g):
        raise AssertionError("distance_data ran before the dense limit was checked")

    cycle8 = Graph.from_edges(8, [(v, (v + 1) % 8) for v in range(8)])
    monkeypatch.setattr(graphs, "distance_data", fail)
    with pytest.raises(DenseLimitError):
        analyze_graph(cycle8, max_dense=5)


def test_edge_list_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 1\n0 1 2\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_edge_list("# only comments\n")
    assert err.value.line_no == 0
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 0\n")
