"""Graph layer: distances, geodesic counts and girth against BFS and
networkx oracles, spectral projectors against an eigenvector-basis oracle,
the geodesic identity as the second route, and the two theorem reports."""

import dataclasses
import math
import re
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    GRAPH_SPECS,
    bfs_distances_reference,
    catalog_graph,
    girth_reference,
    max_abs_diff,
    neighbour_lists,
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
    moore_bound,
    parse_edge_list,
    spectral_projectors,
)
from polyscheme.numerics import k_factors, lagrange_denominators

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
    h.add_edges_from(g.edges.tolist())
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


def from_edges_reference(n, edges):
    """Oracle for Graph.from_edges: the checks edge by edge, in order, with a
    set of the pairs seen.  Returns the sorted pairs or the error message."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"self-loop at vertex {u}"
        if (min(u, v), max(u, v)) in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add((min(u, v), max(u, v)))
    return sorted(seen)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=12))
def test_from_edges_matches_the_per_edge_checks(n, edges):
    want = from_edges_reference(n, edges)
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert [tuple(e) for e in g.edges.tolist()] == want
        assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
        adj = np.zeros((n, n))
        for u, v in want:
            adj[u, v] = adj[v, u] = 1.0
        assert np.array_equal(g.adjacency_matrix(), adj)


def from_edges_by_sort(n, edges):
    """Oracle for Graph.from_edges: its sort path alone, which finds the
    first offender among sorted keys.  Returns the sorted pairs or the
    error message."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    key, first = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1), return_index=True)
    repeat = np.bincount(first, minlength=len(pairs)) == 0
    bad = np.flatnonzero(outside | (pairs[:, 0] == pairs[:, 1]) | repeat)
    if bad.size:
        u, v = pairs[bad[0]].tolist()
        return (f"edge ({u}, {v}) out of range for n={n}" if outside[bad[0]]
                else f"self-loop at vertex {u}" if u == v else f"duplicate edge ({u}, {v})")
    return [tuple(e) for e in np.column_stack(np.divmod(key, n)).tolist()]


@st.composite
def edge_lists(draw):
    """n and a list of distinct pairs, each in either orientation, with up
    to two faults inserted anywhere: a repeat in either orientation, a
    self-loop, or a vertex out of range.  The edge counts straddle
    n^2 = 16 m, where Graph.from_edges switches to its table."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    vertex = st.integers(0, n - 1)
    for fault in draw(st.lists(st.sampled_from(["repeat", "self-loop", "below", "above"]),
                               max_size=2)):
        if fault == "repeat" and edges:
            u, v = edges[draw(st.integers(0, len(edges) - 1))]
            pair = (v, u) if draw(st.booleans()) else (u, v)
        elif fault == "self-loop":
            w = draw(vertex)
            pair = (w, w)
        else:
            pair = (draw(vertex), -1 if fault == "below" else n + draw(st.integers(0, 2)))
            pair = pair[::-1] if draw(st.booleans()) else pair
        edges.insert(draw(st.integers(0, len(edges))), pair)
    return n, edges


@settings(max_examples=500, deadline=None)
@given(edge_lists())
@example((4, [(1, 0)]))
@example((8, [(0, 1), (3, 2), (4, 5), (7, 6)]))
@example((8, [(0, 1), (3, 2), (4, 5), (1, 0)]))
@example((8, [(0, 1), (3, 2), (5, 5), (7, 6)]))
@example((8, [(0, 1), (3, 2), (4, 8), (7, 6)]))
@example((8, [(0, 1), (3, 2), (4, 5)]))
@example((12, [(u, u + 1) for u in range(0, 12, 2)] + [(1, 2), (5, 6), (9, 10)]))
def test_from_edges_table_matches_the_sort(case):
    n, edges = case
    want = from_edges_by_sort(n, edges)
    assert want == from_edges_reference(n, edges)
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert [tuple(e) for e in g.edges.tolist()] == want
        assert g.edges.dtype == np.int64 and not g.edges.flags.writeable


def test_from_edges_marks_a_table_from_n_squared_equal_16_m(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("the keys were sorted")

    monkeypatch.setattr(np, "unique", no_sort)
    g = Graph.from_edges(8, [(0, 1), (3, 2), (4, 5), (7, 6)])
    assert g.edges.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
    # Above the bound, and on any fault, the keys are sorted.
    for edges in ([(0, 1), (3, 2), (4, 5)], [(0, 1), (3, 2), (4, 5), (1, 0)],
                  [(0, 1), (3, 2), (4, 4), (7, 6)], [(0, 1), (3, 2), (4, 8), (7, 6)]):
        with pytest.raises(AssertionError, match="sorted"):
            Graph.from_edges(8, edges)


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
    assert np.array_equal(dd.far, np.flatnonzero(dd.dist == 2)) and dd.far.size == 60


def test_hoffman_singleton_certificate():
    # SRG(50, 7, 0, 1): triangle-free with A^2 + A - 6I = J pins the graph
    # parameters independently of any spectral code.
    g = catalog_graph("hoffman-singleton")
    assert g.n == 50 and g.regular_degree() == 7
    a = g.adjacency_matrix()
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
    w, vecs = np.linalg.eigh(g.adjacency_matrix())
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
    k1, k2 = k_factors(lagrange_denominators(spec.values))
    assert abs(k1 - 5.0 / 3.0) < 1e-12
    assert abs(k2 + 2.0 / 3.0) < 1e-12
    assert k_factor_fraction(spec, 1) == Fraction(5, 3)
    assert k_factor_fraction(spec, 2) == Fraction(-2, 3)


def test_k_factor_fraction_irrational_spectrum():
    spec = spectral_projectors(catalog_graph("cycle5")).spectrum
    assert k_factor_fraction(spec, 1) is None


def test_projector_entries_petersen():
    rep = analyze_graph(catalog_graph("petersen")).reports[0]
    assert rep.status == "pass"
    expected = rep.evidence["expected_entries"]
    assert [e["exact"] for e in expected] == ["-1/6", "1/15"]
    assert abs(expected[0]["value"] + 1.0 / 6.0) < 1e-12
    assert abs(expected[1]["value"] - 1.0 / 15.0) < 1e-12
    assert rep.evidence["max_deviation"] <= 1e-9


def test_projector_entries_cube():
    rep = analyze_graph(catalog_graph("cube")).reports[0]
    assert rep.status == "pass"
    assert [e["exact"] for e in rep.evidence["expected_entries"]] == [
        "-3/8", "3/8", "-1/8"]


def test_projector_entries_hypothesis_failures():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    rep = analyze_graph(path).reports[0]
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["summary"] == "not regular"

    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = analyze_graph(two_triangles).reports[0]
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["summary"] == "not connected"

    # Triangular prism: 4 distinct eigenvalues but diameter 2.
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
            (0, 3), (1, 4), (2, 5)])
    rep = analyze_graph(prism).reports[0]
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
    rep = analyze_graph(g).reports[1]
    assert rep.status == "pass"
    assert rep.evidence["row_floor"] == LARGE_GRAPH_FLOORS[name]
    assert rep.evidence["min_forced_per_row"] >= LARGE_GRAPH_FLOORS[name]
    assert rep.evidence["n"] - rep.evidence["moore_bound"] == LARGE_GRAPH_FLOORS[name]


def test_min_forced_per_row_counts_the_distance_d_pairs():
    # The field is the least number of distance-d pairs in a row.  At a
    # coarse tol the projector entries elsewhere in a row may also match
    # the forced value; they are not counted.  Paley(101) at tol 0.1 has
    # n - 1 - k = 50 non-neighbours per row (100 matching entries).
    g = build_graph(FamilySpec("paley", (101,)))
    large = analyze_graph(g, 0.1).reports[1]
    assert large.status == "pass"
    assert large.evidence["min_forced_per_row"] == large.evidence["row_floor"] == 50
    dist = analyze_graph(g).distances.dist
    assert large.evidence["min_forced_per_row"] == int((dist == 2).sum(axis=1).min())


def test_large_graph_report_small_cube():
    # 8 vertices is within M(3, 2) = 10, so the size hypothesis fails.
    rep = analyze_graph(catalog_graph("cube")).reports[1]
    assert rep.status == "hypothesis-not-met"
    assert rep.evidence["moore_bound"] == 10


def test_edge_list_round_trip():
    for name in ("petersen", "cycle6"):
        g = catalog_graph(name)
        back = parse_edge_list(format_edge_list(g))
        assert back.n == g.n and np.array_equal(back.edges, g.edges)


def test_edge_list_comments_and_blanks_ignored():
    text = "# a triangle\n3 3\n\n0 1  # first edge\n1 2\n0 2#last\n"
    assert parse_edge_list(text).edges.tolist() == [[0, 1], [0, 2], [1, 2]]


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
    return Graph.from_edges(h.number_of_nodes(), list(h.edges()))


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
        assert np.array_equal(dd.dist[root], bfs_distances_reference(neighbour_lists(g), root))
    assert dd.diameter == dd.dist.max()
    # The last level handed over: the distance-d pairs in order, with their
    # geodesic counts.
    far = [x * g.n + y for x in range(g.n) for y in range(g.n) if dd.dist[x, y] == dd.diameter]
    assert dd.far.tolist() == far
    assert dd.far_geodesics.tolist() == [
        len(list(nx.all_shortest_paths(h, *divmod(xy, g.n)))) for xy in far]
    assert dd.is_connected() == nx.is_connected(h)
    want_girth = girth_reference(g)
    assert dd.girth == girth(g) == want_girth
    assert want_girth == (None if nx.is_forest(h) else nx.girth(h))


@pytest.mark.parametrize("n", [300, 301])
def test_long_cycle_through_the_gather(n, monkeypatch):
    monkeypatch.setattr(graphs, "_gather_limit", lambda n: 10 ** 30)
    dd = distance_data(cycle(n))
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    assert np.array_equal(dd.dist, np.minimum(offset, n - offset))
    assert np.array_equal(dd.far, np.flatnonzero(dd.dist == n // 2))
    # Only an even cycle has two geodesics, between antipodes.
    assert np.array_equal(dd.far_geodesics, np.full(dd.far.size, 2.0 - n % 2))
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
    a = g.adjacency_matrix()
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
        return dataclasses.replace(dd, far_geodesics=mutate(g, dd))

    monkeypatch.setattr(graphs, "distance_data", wrong)


def _walks(g, length, dd):
    """The number of walks of the given length at each far pair of dd."""
    return np.linalg.matrix_power(g.adjacency_matrix(), length).reshape(-1)[dd.far]


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
    rep = analyze_graph(g).reports[0]
    assert rep.status == "pass" and rep.evidence["geodesic_deviation"] <= 1e-9
    mutate = {
        "doubled": lambda g, dd: 2 * dd.far_geodesics,
        "one level short": lambda g, dd: _walks(g, dd.diameter - 1, dd),
        "one level long": lambda g, dd: _walks(g, dd.diameter + 1, dd),
    }[mutation]
    _mutated_distances(monkeypatch, mutate)
    with pytest.raises(MethodsDisagreeError, match="geodesics give"):
        analyze_graph(g)


def test_geodesic_identity_refusal_names_plain_floats(monkeypatch):
    # A zeroed eigenvector block makes E_1 vanish, so on Petersen the first
    # distance-2 pair, which has one geodesic, disagrees with 1/L_1 = -1/6.
    real = graphs.spectral_projectors

    def perturbed(g, tol, max_dense):
        family = real(g, tol, max_dense)
        blocks = list(family.blocks)
        blocks[1] = np.zeros_like(blocks[1])
        return dataclasses.replace(family, blocks=tuple(blocks))

    monkeypatch.setattr(graphs, "spectral_projectors", perturbed)
    g = catalog_graph("petersen")
    y = int(np.flatnonzero(distance_data(g).dist[0] == 2)[0])
    with pytest.raises(MethodsDisagreeError) as info:
        analyze_graph(g)
    message = str(info.value)
    match = re.fullmatch(rf"entry \(0, {y}\) of projector 1 is 0\.0, but its 1 geodesics "
                         r"give (-0\.1666666666666\d*)", message)
    assert match, message
    assert abs(float(match[1]) + 1 / 6) <= 1e-12


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


def test_analyze_graph_cycle_1273_past_the_linear_product():
    # From about C_1273 on, a left-to-right product of the d eigenvalue
    # ratios underflows; each forced entry must still be the closed form.
    n, d = 1273, 636
    entries, large = analyze_graph(cycle(n)).reports
    assert entries.status == large.status == "pass"
    got = [e["value"] for e in entries.evidence["expected_entries"]]
    want = [2 / n * math.cos(2 * math.pi * j * d / n) for j in range(1, d + 1)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert entries.evidence["geodesic_deviation"] <= entries.tolerance


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
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges.tolist()])
    a, b = analyze_graph(g), analyze_graph(h)
    assert a.girth == b.girth and a.distances.diameter == b.distances.diameter
    assert a.spectrum.multiplicities == b.spectrum.multiplicities
    assert np.allclose(a.spectrum.values, b.spectrum.values, rtol=0, atol=1e-9)
    for ra, rb in zip(a.reports, b.reports):
        assert (ra.theorem, ra.status) == (rb.theorem, rb.status)
        assert same_evidence(ra.evidence, rb.evidence)


def far_pairs(g: Graph) -> np.ndarray:
    return distance_data(g).far


def far_read_matches_oracle(read, family, far) -> bool:
    """Whether read(family, far), yielding (i, rows) as graphs._far_entries
    does, gives every nontrivial projector's entry at every far pair within
    1e-15 of the dense projector U_i U_i^T read there, and nothing else."""
    oracle = np.array([(u @ u.T).reshape(-1)[far] for u in family.blocks[1:]])
    got = np.full_like(oracle, np.nan)
    for i, rows in read(family, far):
        block = got[i - 1:i - 1 + len(rows)]
        if rows.shape != block.shape or not np.isnan(block).all():
            return False
        block[...] = rows
    return bool(np.all(np.abs(got - oracle) <= 1e-15))


# Graphs whose far pairs take the one-pass read: |far| < s n.
FAR_READ_GRAPHS = {"cube", "cycle6"}


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
@pytest.mark.parametrize("floats", [None, 7])
def test_far_read_matches_the_dense_projectors(name, floats, monkeypatch):
    # floats = 7 reads in groups of one projector and chunks of a few pairs.
    if floats is not None:
        monkeypatch.setattr(graphs, "_FAR_FLOATS", floats)
    g = catalog_graph(name)
    family, far = spectral_projectors(g), far_pairs(g)
    formed = []
    monkeypatch.setattr(graphs.ProjectorFamily, "projector",
                        lambda self, i: formed.append(i) or (self.blocks[i] @ self.blocks[i].T))
    assert far_read_matches_oracle(graphs._far_entries, family, far)
    s = family.spectrum.s
    assert formed == ([] if name in FAR_READ_GRAPHS else list(range(1, s + 1)))
    assert (len(far) < s * g.n) == (name in FAR_READ_GRAPHS)


@st.composite
def connected_regular_graphs(draw):
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 1, 40).filter(lambda n: n * k % 2 == 0))
    h = nx.random_regular_graph(k, n, seed=draw(st.integers(0, 2 ** 16)))
    assume(nx.is_connected(h))
    return from_networkx(h)


@settings(max_examples=60, deadline=None)
@given(connected_regular_graphs(), st.sampled_from([None, 5, 300]))
def test_far_read_matches_the_dense_projectors_on_random_regular_graphs(g, floats):
    family, far = spectral_projectors(g), far_pairs(g)
    saved = graphs._FAR_FLOATS
    if floats is not None:
        graphs._FAR_FLOATS = floats
    try:
        assert far_read_matches_oracle(graphs._far_entries, family, far)
    finally:
        graphs._FAR_FLOATS = saved


@pytest.mark.parametrize("k, n, seed", [(3, 20, 2), (4, 30, 4), (5, 24, 5)])
def test_far_read_oracle_catches_a_dropped_pair(k, n, seed):
    g = from_networkx(nx.random_regular_graph(k, n, seed=seed))
    family, far = spectral_projectors(g), far_pairs(g)
    assert len(far) < family.spectrum.s * g.n
    assert far_read_matches_oracle(graphs._far_entries, family, far)

    def dropped(family, far):
        return graphs._far_entries(family, far[1:])

    def replaced(family, far):
        # Pair 0 is left out of the read; its slot reads pair 1 again.
        return graphs._far_entries(family, np.concatenate([far[1:2], far[1:]]))

    assert not far_read_matches_oracle(dropped, family, far)
    assert not far_read_matches_oracle(replaced, family, far)


def test_far_read_on_long_cycles_reports_as_the_dense_read(monkeypatch):
    # The one-pass read and the projector-by-projector read give the same
    # reports, up to the rounding of the two deviations.
    g = cycle(101)
    fast = analyze_graph(g).reports
    monkeypatch.setattr(graphs, "_far_entries", lambda family, far: (
        (i, family.projector(i).reshape(1, -1)[:, far])
        for i in range(1, family.spectrum.s + 1)))
    dense = analyze_graph(g).reports
    for a, b in zip(fast, dense):
        assert (a.status, a.evidence.keys()) == (b.status, b.evidence.keys())
        for key, value in a.evidence.items():
            if key in ("max_deviation", "geodesic_deviation"):
                assert abs(value - b.evidence[key]) <= 1e-15
            elif key != "summary":
                assert value == b.evidence[key], key


# Geodesics between two vertices at distance d, where s = d.
HOFFMAN_COUNTS = {"complete4": 1, "cube": 6, "cycle5": 1, "cycle6": 2, "hoffman-singleton": 1,
                  "paley13": 3, "petersen": 1, "triangular5": 4}


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_hoffman_count_of_the_catalog(name):
    # Every distance-d pair has L_0/n geodesics (Hoffman 1963).
    g = catalog_graph(name)
    dd = distance_data(g)
    spectrum = spectral_projectors(g).spectrum
    assert spectrum.s == dd.diameter
    sign, log = lagrange_denominators(spectrum.values)
    assert round(sign[0] * math.exp(log[0]) / g.n) == HOFFMAN_COUNTS[name]
    assert set(dd.far_geodesics.tolist()) == {HOFFMAN_COUNTS[name]}
    assert analyze_graph(g).reports[0].status == "pass"


@pytest.mark.parametrize("name", sorted(GRAPH_SPECS))
def test_one_wrong_geodesic_count_is_refused_by_hoffmans_count(name, monkeypatch):
    g = catalog_graph(name)
    dd = distance_data(g)
    x, y = divmod(int(dd.far[-1]), g.n)

    def one_more(g, dd):
        paths = dd.far_geodesics.copy()
        paths[-1] += 1
        return paths

    _mutated_distances(monkeypatch, one_more)
    count = HOFFMAN_COUNTS[name]
    with pytest.raises(MethodsDisagreeError) as info:
        analyze_graph(g)
    assert re.fullmatch(rf"entry \({x}, {y}\) of projector 0 is 1/{g.n}, but its {count + 1} "
                        rf"geodesics give \S+; every distance-{dd.diameter} pair needs "
                        rf"L_0/n = {count}", str(info.value)), str(info.value)


@pytest.mark.parametrize("split", [False, True])
def test_scan_witness_is_the_first_projector_and_pair_with_the_worst_gap(split, monkeypatch):
    # Synthetic entries: gap 1 at projector 1, pair 3 and at projector 2,
    # pairs 3 and 5.  The identity does not apply (s > d), so only the
    # forced check reads them, in one block or split after projector 1.
    g = from_networkx(nx.random_regular_graph(3, 20, seed=2))
    family, far = spectral_projectors(g), far_pairs(g)
    dd = distance_data(g)
    assert family.spectrum.s > dd.diameter
    want = -np.array(k_factors(lagrange_denominators(family.spectrum.values))) / g.n
    rows = np.repeat(want[:, None], len(far), axis=1)
    rows[0, 3] += 1.0
    rows[1, [3, 5]] -= 1.0
    blocks = [(1, rows[:1]), (2, rows[1:])] if split else [(1, rows)]
    monkeypatch.setattr(graphs, "_far_entries", lambda family, far: iter(blocks))
    _, worst, witness, _, identity = graphs._forced_entry_scan(family, dd, 1e-9)
    assert worst == 1.0 and identity is None
    assert witness == [*divmod(int(far[3]), g.n), 1]


def test_identity_refusal_names_the_first_failing_projector(monkeypatch):
    # Entries from the counts, off by 1e-3 at projector 3, pair 4 and by
    # 1e-2 at projector 5, pair 2: projector 3 is named, at pair 4.
    g = cycle(15)
    family, far = spectral_projectors(g), far_pairs(g)
    dd = distance_data(g)
    sign, log = lagrange_denominators(family.spectrum.values)
    rows = dd.far_geodesics / (sign[1:, None] * np.exp(log[1:, None]))
    rows[2, 4] += 1e-3
    rows[4, 2] += 1e-2
    monkeypatch.setattr(graphs, "_far_entries", lambda family, far: iter([(1, rows)]))
    x, y = divmod(int(far[4]), g.n)
    with pytest.raises(MethodsDisagreeError, match=rf"^entry \({x}, {y}\) of projector 3 is "):
        graphs._forced_entry_scan(family, dd, 1e-9)
