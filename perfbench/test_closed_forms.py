"""Checks of the benchmark's closed forms against brute force on small
members.  Independent of polyscheme; run with

    python3 -m pytest perfbench
"""

import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import closed_forms as cf
import workloads

SMALL_SCHEMES = [("johnson", 6, 3), ("johnson", 7, 2), ("hamming", 3, 3), ("hamming", 4, 2)]


def brute_labels(family, a, b):
    if family == "johnson":
        pts = [set(s) for s in itertools.combinations(range(a), b)]
        return np.array([[b - len(x & y) for y in pts] for x in pts])
    pts = list(itertools.product(range(b), repeat=a))
    return np.array([[sum(u != v for u, v in zip(x, y)) for y in pts] for x in pts])


def brute_tensor(labels, d):
    n = labels.shape[0]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for k in range(d + 1):
        x, y = np.argwhere(labels == k)[0]
        for z in range(n):
            p[labels[x, z], labels[z, y], k] += 1
    return p


@pytest.mark.parametrize("family,a,b", SMALL_SCHEMES)
def test_relation_labels_and_tensor_match_pair_counting(family, a, b):
    forms = cf.scheme_closed_forms(family, a, b)
    labels = brute_labels(family, a, b)
    assert np.array_equal(cf.relation_labels(family, a, b), labels)
    assert labels.shape[0] == forms["n"] and labels.max() == forms["d"]
    assert [int((labels[0] == i).sum()) for i in range(forms["d"] + 1)] == forms["degrees"]
    assert np.array_equal(cf.intersection_tensor(forms), brute_tensor(labels, forms["d"]))


@pytest.mark.parametrize("family,a,b", SMALL_SCHEMES)
def test_eigenmatrix_gives_every_class_spectrum(family, a, b):
    forms = cf.scheme_closed_forms(family, a, b)
    labels = brute_labels(family, a, b)
    mults = forms["multiplicities"]
    assert sum(mults) == forms["n"]
    # A generic combination of the class matrices has eigenvalue
    # sum_i c_i P[j][i] with multiplicity m_j on eigenspace j.
    coeffs = np.random.default_rng(7).uniform(1.0, 2.0, forms["d"] + 1)
    combo = sum(c * (labels == i) for i, c in enumerate(coeffs))
    want = np.sort(np.repeat(np.array(forms["P"], dtype=float) @ coeffs, mults))
    assert np.allclose(np.linalg.eigvalsh(combo), want, atol=1e-8)
    # Eigenspace 1 is the one with the second largest class-1 eigenvalue.
    col1 = [row[1] for row in forms["P"]]
    assert col1 == sorted(col1, reverse=True)


@pytest.mark.parametrize("family,a,b", SMALL_SCHEMES + [("johnson", 10, 4), ("hamming", 5, 2)])
def test_second_eigenmatrix(family, a, b):
    forms = cf.scheme_closed_forms(family, a, b)
    P, n = forms["P"], forms["n"]
    Q = cf.second_eigenmatrix(P, n)
    size = len(P)
    for r in range(size):
        for c in range(size):
            assert sum(P[r][t] * Q[t][c] for t in range(size)) == (n if r == c else 0)
            assert Q[r][c] == Fraction(forms["multiplicities"][c] * P[c][r], forms["degrees"][r])


@pytest.mark.parametrize("family,n,edges_of,facts_of", [
    ("paley", 13, cf.paley_edges, cf.paley_facts),
    ("paley", 29, cf.paley_edges, cf.paley_facts),
    ("cycle", 7, cf.cycle_edges, cf.cycle_facts),
    ("cycle", 15, cf.cycle_edges, cf.cycle_facts),
])
def test_graph_facts(family, n, edges_of, facts_of):
    facts = facts_of(n)
    g = nx.Graph(edges_of(n))
    assert g.number_of_nodes() == facts["n"] and g.number_of_edges() == facts["edges"]
    assert {deg for _, deg in g.degree} == {facts["degree"]}
    assert nx.diameter(g) == facts["diameter"]
    assert nx.girth(g) == facts["girth"]
    eig = np.linalg.eigvalsh(nx.to_numpy_array(g, nodelist=range(n)))
    want = np.sort(np.repeat(facts["spectrum"], facts["multiplicities"]))
    assert np.allclose(eig, want, atol=1e-9)
    assert n > cf.moore_bound(facts["degree"], facts["diameter"] - 1)


def test_bounds():
    assert [cf.moore_bound(3, d) for d in (1, 2, 3)] == [4, 10, 22]
    assert cf.absolute_bound(5, 1) == 6
    assert cf.absolute_bound(2, 2) == 5  # the regular pentagon


def parse_gram(text):
    lines = text.splitlines()
    return np.array([[float(v) for v in line.split()] for line in lines[1:]])


@pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (8, 3)])
def test_johnson_sphere(n, k):
    sph = cf.johnson_sphere(n, k)
    perm = np.random.default_rng(3).permutation(math.comb(n, k))
    gram = parse_gram(cf.gram_text(n, k, perm))
    inc = cf.johnson_points(n, k) - k / n
    vecs = inc / np.linalg.norm(inc, axis=1, keepdims=True)
    inv = np.argsort(perm)
    assert np.allclose(gram, (vecs @ vecs.T)[np.ix_(inv, inv)], atol=1e-12)
    assert np.linalg.matrix_rank(gram, tol=1e-9) == sph["m"] == n - 1
    assert np.allclose(sorted(set(np.round(gram.ravel(), 12)), reverse=True), sph["values"])
    assert sph["floor"] > 0
    for forced in sph["forced"]:
        i = forced["class"]
        graph = np.isclose(gram, sph["values"][i], atol=1e-12).astype(float)
        eig = np.linalg.eigvalsh(graph)
        mult = int(np.isclose(eig, forced["eigenvalue"], atol=1e-8).sum())
        assert mult == forced["multiplicity"]
        assert forced["multiplicity"] >= sph["floor"]


def test_relabelled_texts():
    rng = np.random.default_rng(5)
    perm = rng.permutation(13)
    lines = cf.edge_list_text(13, cf.paley_edges(13), perm).splitlines()
    edges = {tuple(sorted(map(int, line.split()))) for line in lines[1:]}
    assert edges == {tuple(sorted((perm[u], perm[v]))) for u, v in cf.paley_edges(13)}
    labels = cf.relation_labels("hamming", 2, 3)
    perm = rng.permutation(9)
    rows = cf.relation_matrix_text(labels, 2, perm).splitlines()[1:]
    relabelled = np.array([[int(v) for v in row.split()] for row in rows])
    assert np.array_equal(relabelled[np.ix_(perm, perm)], labels)
    forms = cf.scheme_closed_forms("hamming", 2, 3)
    lines = cf.tensor_text(forms, rng).splitlines()
    p = np.zeros((3, 3, 3), dtype=np.int64)
    for line in lines[1:]:
        i, j, k, v = map(int, line.split())
        p[i, j, k] = v
    assert lines[0] == "9 2" and np.array_equal(p, cf.intersection_tensor(forms))


def fake_graph_output(facts):
    forced = [{"projector": i + 1, "value": -ki / facts["n"], "exact": None}
              for i, ki in enumerate(cf.k_factors(facts["spectrum"]))]
    bound = cf.moore_bound(facts["degree"], facts["diameter"] - 1)
    reports = [{"theorem": "projector-entries", "status": "pass",
                "evidence": {"expected_entries": forced}},
               {"theorem": "large-graph", "status": "pass",
                "evidence": {"expected_entries": forced, "moore_bound": bound}}]
    return dict(facts, reports=reports)


def test_graph_check_accepts_closed_forms_and_rejects_changes():
    facts = cf.paley_facts(13)
    out = fake_graph_output(facts)
    assert workloads.check_graph(out, facts) == []
    assert workloads.check_graph(dict(out, girth=4), facts)
    assert workloads.check_graph(dict(out, spectrum=[6.0, 1.3, -2.3]), facts)
    out["reports"][1]["status"] = "fail"
    assert workloads.check_graph(out, facts)


def test_scheme_check_accepts_closed_forms_and_rejects_changes():
    forms = cf.scheme_closed_forms("johnson", 7, 3)
    Q = cf.second_eigenmatrix(forms["P"], forms["n"])
    d = forms["d"]
    chain = list(range(d + 1))
    verdicts = []
    for j in range(1, d + 1):
        for kind in "PQ":
            for slot in range(3):
                ordering = chain if j == 1 and slot == 0 else None
                verdicts.append({"kind": kind, "base_index": j, "status": "polynomial",
                                 "ordering": ordering})
    out = {"mode": "parametric", "n": forms["n"], "d": d, "degrees": forms["degrees"],
           "multiplicities": forms["multiplicities"], "P": forms["P"],
           "Q": [[float(v) for v in row] for row in Q], "verdicts": verdicts, "reports": []}
    assert workloads.check_scheme(out, forms, Q, "parametric") == []
    assert workloads.routes_agree(out, out) == []
    bad_p = [row[:] for row in forms["P"]]
    bad_p[1][1] += 1
    assert workloads.check_scheme(dict(out, P=bad_p), forms, Q, "parametric")
    swapped = [dict(v) for v in verdicts]
    swapped[0]["ordering"] = [0, 1, 3, 2]
    assert workloads.check_scheme(dict(out, verdicts=swapped), forms, Q, "parametric")
    assert workloads.routes_agree(out, dict(out, verdicts=swapped))


def test_sphere_check_accepts_closed_forms_and_rejects_changes():
    sph = cf.johnson_sphere(8, 3)
    checks = [{"class": f["class"], "eigenvalue": f["eigenvalue"],
               "multiplicity": f["multiplicity"], "floor": sph["floor"]} for f in sph["forced"]]
    ev = {"n": sph["n"], "m": sph["m"], "d": sph["s"], "route": "schur",
          "absolute_bound": sph["absolute_bound"], "values": sph["values"],
          "schur_diameter": sph["s"], "checks": checks}
    out = {"reports": [{"status": "pass", "evidence": ev}]}
    assert workloads.check_sphere(out, sph, "schur") == []
    out["reports"][0]["evidence"] = dict(ev, schur_diameter=2)
    assert workloads.check_sphere(out, sph, "schur")
    out["reports"][0]["evidence"] = dict(ev, checks=[dict(checks[0], multiplicity=1)] + checks[1:])
    assert workloads.check_sphere(out, sph, "schur")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workloads_build_distinct_inputs_per_seed(name):
    wl = workloads.build(name)
    assert {op.input_name for op in wl.ops} == set(wl.inputs)
    first = next(iter(wl.inputs.values()))
    a = first(np.random.default_rng([1, 0]))
    assert a == first(np.random.default_rng([1, 0]))
    assert a != first(np.random.default_rng([2, 0]))
