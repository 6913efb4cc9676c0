"""Graph layer: distances, geodesic counts and girth against BFS and
networkx oracles, spectral projectors against an eigenvector-basis oracle,
the geodesic identity as the second route, and the two theorem reports."""

import dataclasses
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GRAPH_SPECS,
    bfs_distances_reference,
    catalog_graph,
    girth_reference,
    max_abs_diff,
    same_evidence,
)
from polyscheme import graphs
from polyscheme.errors import (
    DenseLimitError,
    GraphStructureError,
    MethodsDisagreeError,
    ParseError,
)
from polyscheme.generators import FamilySpec, build_graph
from polyscheme.graphs import (
    Graph,
    UNREACHABLE,
    analyze_graph,
    distance_data,
    format_edge_list,
    girth,
    k_factor_fraction,
    large_graph_report,
    moore_bound,
    parse_edge_list,
    spectral_projectors,
    verify_projector_entries,
)
from polyscheme.numerics import k_factor

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
    for i, value in enumerate(family.spectrum.values):
        proj = family.projector(i)
        cols = vecs[:, np.abs(w - value) < 1e-6]
        assert cols.shape[1] == family.spectrum.multiplicity_of(value)
        assert max_abs_diff(cols @ cols.T, proj) < 1e-9


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_projector_family_identities(name):
    g = catalog_graph(name)
    family = spectral_projectors(g)
    n = g.n
    projs = [family.projector(i) for i in range(family.spectrum.s + 1)]
    for i, ei in enumerate(projs):
        assert max_abs_diff(ei @ ei, ei) < 1e-7
        for ej in projs[i + 1:]:
            assert float(np.max(np.abs(ei @ ej))) < 1e-7
    assert max_abs_diff(sum(projs), np.eye(n)) < 1e-7
    rebuilt = sum(v * e for v, e in zip(family.spectrum.values, projs))
    assert max_abs_diff(rebuilt, g.adjacency_matrix()) < 1e-7


def test_k_factor_petersen():
    spec = spectral_projectors(catalog_graph("petersen")).spectrum
    assert abs(k_factor(spec.values, 1) - 5.0 / 3.0) < 1e-12
    assert abs(k_factor(spec.values, 2) + 2.0 / 3.0) < 1e-12
    assert k_factor_fraction(spec, 1) == Fraction(5, 3)
    assert k_factor_fraction(spec, 2) == Fraction(-2, 3)
    with pytest.raises(ValueError):
        k_factor(spec.values, 0)
    with pytest.raises(ValueError):
        k_factor(spec.values, 3)


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


def test_edge_list_header_refused_before_vertices(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("per-vertex work began above the dense limit")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(fail))
    with pytest.raises(DenseLimitError):
        parse_edge_list("1000000000 0\n")
    with pytest.raises(DenseLimitError):
        parse_edge_list("# comment first\n20 1\n0 1\n", max_dense=12)


def test_edge_list_limit_can_be_lifted():
    assert parse_edge_list("20 1\n0 1\n", max_dense=None).n == 20


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


def from_networkx(h: nx.Graph) -> Graph:
    return Graph.from_edges(h.number_of_nodes(), h.edges())


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def random_tree(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, [(v, int(rng.integers(v))) for v in range(1, n)])


# Catalog graphs plus random ones: regular with fixed seeds (some
# disconnected at degree 2), and irregular ones, whose neighbour table rows
# are padded.
ORACLE_GRAPHS = {
    **{name: (lambda name=name: catalog_graph(name)) for name in GRAPH_SPECS},
    **{f"regular{k}-{n}-s{seed}": (lambda k=k, n=n, seed=seed:
                                   from_networkx(nx.random_regular_graph(k, n, seed=seed)))
       for k, n, seed in [(2, 30, 1), (3, 20, 2), (3, 40, 3), (4, 30, 4), (5, 24, 5), (6, 36, 6)]},
    "gnp25": lambda: from_networkx(nx.gnp_random_graph(25, 0.12, seed=7)),
    "tree30": lambda: random_tree(30, seed=8),
    "c4+c5+k1": lambda: Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 0),
                                              (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]),
}


@pytest.fixture(params=["gather", "blas", "mixed"])
def level_step(request, monkeypatch):
    """Run the level loop with every step a gather, every step a BLAS
    product, or the default cost rule choosing per level."""
    if request.param != "mixed":
        limit = 10 ** 30 if request.param == "gather" else 0
        monkeypatch.setattr(graphs, "_gather_limit", lambda n: limit)
    return request.param


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_level_loop_matches_oracles(name, level_step):
    g = ORACLE_GRAPHS[name]()
    h = to_networkx(g)
    dd = distance_data(g)
    for root in range(g.n):
        assert np.array_equal(dd.dist[root], bfs_distances_reference(g.neighbors, root))
    for x in range(g.n):
        for y in range(g.n):
            want = (len(list(nx.all_shortest_paths(h, x, y)))
                    if dd.dist[x, y] != UNREACHABLE else 0)
            assert dd.geodesics[x, y] == want, (x, y)
    assert dd.diameter == dd.dist.max()
    want_girth = girth_reference(g)
    assert dd.girth == girth(g) == want_girth
    assert want_girth == (None if nx.is_forest(h) else nx.girth(h))


@pytest.mark.parametrize("n", [300, 301])
def test_long_cycle_through_the_gather(n, monkeypatch):
    monkeypatch.setattr(graphs, "_gather_limit", lambda n: 10 ** 30)
    dd = distance_data(cycle(n))
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    assert np.array_equal(dd.dist, np.minimum(offset, n - offset))
    # Only an even cycle has two geodesics, between antipodes.
    assert np.array_equal(dd.geodesics, np.where(2 * offset == n, 2.0, 1.0))
    assert dd.diameter == n // 2 and dd.girth == n


def test_default_cost_rule_gathers_on_a_long_cycle(monkeypatch):
    # A BLAS step builds its dense n*n level vector with np.zeros; the
    # gather builds none.
    steps = []
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        steps.append(shape)
        return real_zeros(shape, *args, **kwargs)

    g = cycle(201)
    a = g.adjacency_matrix().a
    monkeypatch.setattr(np, "zeros", zeros)
    dd = graphs.adjacency_distances(a)
    assert dd.diameter == 100 and g.n ** 2 not in steps


def test_distance_data_refuses_before_allocating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an n x n array was allocated above the dense limit")

    cycle8 = cycle(8)
    monkeypatch.setattr(np, "zeros", fail)
    monkeypatch.setattr(np, "full", fail)
    with pytest.raises(DenseLimitError):
        distance_data(cycle8, max_dense=5)
    with pytest.raises(DenseLimitError):
        cycle8.adjacency_matrix(max_dense=5)


def _mutated_distances(monkeypatch, mutate):
    real = graphs.distance_data

    def wrong(g, max_dense=None):
        dd = real(g)
        return dataclasses.replace(dd, geodesics=mutate(g, dd))

    monkeypatch.setattr(graphs, "distance_data", wrong)


def _walks(g, length):
    return np.linalg.matrix_power(g.adjacency_matrix().a, length)


# On C_5 the 3-walks between vertices at distance 2 happen to number 1, so
# a count one level long is not a disagreement there.
@pytest.mark.parametrize("name, mutation", [
    (name, mutation)
    for name in ("petersen", "cube", "cycle5", "hoffman-singleton", "paley13")
    for mutation in ("doubled", "one level short", "one level long")
    if (name, mutation) != ("cycle5", "one level long")
])
def test_geodesic_count_mutations_raise(name, mutation, monkeypatch):
    g = catalog_graph(name)
    rep = verify_projector_entries(g)
    assert rep.status == "pass" and rep.evidence["geodesic_deviation"] <= 1e-9
    mutate = {
        "doubled": lambda g, dd: 2 * dd.geodesics,
        "one level short": lambda g, dd: _walks(g, dd.diameter - 1),
        "one level long": lambda g, dd: _walks(g, dd.diameter + 1),
    }[mutation]
    _mutated_distances(monkeypatch, mutate)
    with pytest.raises(MethodsDisagreeError, match="geodesics give"):
        analyze_graph(g)


def test_analyze_graph_paley_401_at_scale():
    q = 401
    analysis = analyze_graph(build_graph(FamilySpec("paley", (q,))))
    root = math.sqrt(q)
    values = [(q - 1) / 2, (-1 + root) / 2, (-1 - root) / 2]
    assert np.allclose(analysis.spectrum.values, values, rtol=0, atol=1e-9)
    assert analysis.spectrum.multiplicities == (1, 200, 200)
    assert analysis.distances.diameter == 2 and analysis.girth == 3
    entries, large = analysis.reports
    assert entries.status == large.status == "pass"
    k1 = (values[0] - values[2]) / (values[1] - values[2])
    k2 = (values[0] - values[1]) / (values[2] - values[1])
    got = [e["value"] for e in entries.evidence["expected_entries"]]
    assert np.allclose(got, [-k1 / q, -k2 / q], rtol=0, atol=1e-12)
    assert entries.evidence["max_deviation"] <= 1e-9
    assert entries.evidence["geodesic_deviation"] <= 1e-9
    # Every row has its n - 1 - k non-neighbours forced, and no more.
    assert large.evidence["moore_bound"] == 201
    assert large.evidence["min_forced_per_row"] == large.evidence["row_floor"] == 200


def test_analyze_graph_cycle_201_at_scale():
    n, d = 201, 100
    analysis = analyze_graph(cycle(n))
    values = [2 * math.cos(2 * math.pi * j / n) for j in range(d + 1)]
    assert np.allclose(analysis.spectrum.values, values, rtol=0, atol=1e-9)
    assert analysis.spectrum.multiplicities == (1,) + (2,) * d
    assert analysis.distances.diameter == d and analysis.girth == n
    entries, large = analysis.reports
    assert entries.status == large.status == "pass"
    # E_j = (2/n) cos(2 pi j t / n) on a pair at distance t.
    got = [e["value"] for e in entries.evidence["expected_entries"]]
    want = [2 / n * math.cos(2 * math.pi * j * d / n) for j in range(1, d + 1)]
    assert np.allclose(got, want, rtol=0, atol=1e-9)
    assert entries.evidence["geodesic_deviation"] <= 1e-9
    assert large.evidence["moore_bound"] == 199
    assert large.evidence["min_forced_per_row"] == large.evidence["row_floor"] == 2


INVARIANCE_GRAPHS = {
    **{name: (lambda name=name: catalog_graph(name)) for name in GRAPH_SPECS},
    "cycle9": lambda: cycle(9),
    "prism": lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "path4": lambda: Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "two-triangles": lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "gnp12": lambda: from_networkx(nx.gnp_random_graph(12, 0.3, seed=3)),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(INVARIANCE_GRAPHS)), st.randoms(use_true_random=False))
def test_relabelling_leaves_the_reports_unchanged(name, rnd):
    g = INVARIANCE_GRAPHS[name]()
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    a, b = analyze_graph(g), analyze_graph(h)
    assert a.girth == b.girth and a.distances.diameter == b.distances.diameter
    assert a.spectrum.multiplicities == b.spectrum.multiplicities
    assert np.allclose(a.spectrum.values, b.spectrum.values, rtol=0, atol=1e-9)
    for ra, rb in zip(a.reports, b.reports):
        assert (ra.theorem, ra.status) == (rb.theorem, rb.status)
        assert same_evidence(ra.evidence, rb.evidence)
