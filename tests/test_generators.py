"""Family constructions: vertex/edge counts, certificates for the two
strongly regular members, and the classical-parameters intersection
tensors against the counting route and two hand-derived oracles."""

import itertools
import math

import numpy as np
import pytest

from conftest import SCHEME_SPECS, analyzed_scheme, catalog_graph, max_abs_diff
from polyscheme import generators
from polyscheme.errors import MethodsDisagreeError
from polyscheme.generators import (
    FamilySpec,
    _expected_closed_forms,
    build_graph,
    build_scheme,
    classical_intersection_numbers,
    family_parameters,
    family_tensor,
)
from polyscheme.graphs import distance_data
from polyscheme.numerics import eigen_clusters
from polyscheme.schemes import validate_scheme


def _comb0(m: int, t: int) -> int:
    return math.comb(m, t) if 0 <= t <= m else 0


def johnson_tensor_oracle(n: int, k: int) -> np.ndarray:
    """Intersection tensor of the Johnson scheme, classes by k - overlap.

    Given points x, y with overlap k - h, a third point z is split over
    the four regions cut out by x and y; summing over the size a of the
    piece inside both gives the count in closed form.
    """
    d = min(k, n - k)
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                total = 0
                for a in range(k - h + 1):
                    total += (_comb0(k - h, a)
                              * _comb0(h, k - i - a)
                              * _comb0(h, k - j - a)
                              * _comb0(n - k - h, i + j + a - k))
                p[i, j, h] = total
    return p


def hamming_tensor_oracle(d: int, q: int) -> np.ndarray:
    """Intersection tensor of the Hamming scheme, classes by distance.

    With x, y differing in h coordinates, a word z is classified by r
    (disagreements inside the h-complement), and inside the h block by
    how many coordinates follow x, follow y, or neither.
    """
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                total = 0
                for r in range(d - h + 1):
                    u = i + j - 2 * r - h
                    s = h + r - i
                    t = h + r - j
                    if u < 0 or s < 0 or t < 0:
                        continue
                    total += (math.comb(d - h, r) * (q - 1) ** r
                              * math.comb(h, s) * math.comb(h - s, t) * (q - 2) ** u)
                p[i, j, h] = total
    return p


ORACLE_MEMBERS = ([FamilySpec("johnson", (n, k)) for n in range(2, 40) for k in range(1, n)]
                  + [FamilySpec("hamming", (d, q)) for d in range(1, 9) for q in range(2, 12)])


JOHNSON83_P = np.array([
    [1.0, 15.0, 30.0, 10.0],
    [1.0, 7.0, -2.0, -6.0],
    [1.0, 1.0, -5.0, 3.0],
    [1.0, -3.0, 3.0, -1.0],
])


@pytest.mark.parametrize("bad", [
    lambda: FamilySpec("kneser", (5, 2)),
    lambda: FamilySpec("petersen", (1,)),
    lambda: FamilySpec("cycle", (2,)),
    lambda: FamilySpec("complete", (1,)),
    lambda: FamilySpec("paley", (10,)),
    lambda: FamilySpec("paley", (7,)),
    lambda: FamilySpec("paley", (10009,)),
    lambda: FamilySpec("johnson", (3, 3)),
    lambda: FamilySpec("johnson", (3, 0)),
    lambda: FamilySpec("hamming", (0, 2)),
    lambda: FamilySpec("hamming", (3, 1)),
])
def test_family_spec_rejects(bad):
    with pytest.raises(ValueError):
        bad()


def test_family_spec_label():
    assert FamilySpec("johnson", (8, 3)).label() == "johnson(8, 3)"
    assert FamilySpec("petersen").label() == "petersen"


@pytest.mark.parametrize("name, args, n, edges, degree", [
    ("cycle", (6,), 6, 6, 2),
    ("complete", (4,), 4, 6, 3),
    ("petersen", (), 10, 15, 3),
    ("hoffman-singleton", (), 50, 175, 7),
    ("paley", (13,), 13, 39, 6),
    ("johnson", (8, 3), 56, 420, 15),
    ("hamming", (3, 2), 8, 12, 3),
])
def test_build_graph_shape(name, args, n, edges, degree):
    g = build_graph(FamilySpec(name, args))
    assert g.n == n
    assert len(g.edges) == edges
    assert g.regular_degree() == degree


def test_paley13_srg_certificate():
    # SRG(13, 6, 2, 3): A^2 = 6I + 2A + 3(J - I - A), exactly.
    a = catalog_graph("paley13").adjacency_matrix()
    j = np.ones((13, 13))
    eye = np.eye(13)
    assert max_abs_diff(a @ a, 6 * eye + 2 * a + 3 * (j - eye - a)) == 0.0


def test_paley13_spectrum():
    spec = eigen_clusters(catalog_graph("paley13").adjacency_matrix())
    r = (-1 + math.sqrt(13)) / 2
    assert spec.multiplicities == (1, 6, 6)
    assert spec.values[0] == 6.0
    assert abs(spec.values[1] - r) < 1e-9
    assert abs(spec.values[2] - (-1 - r)) < 1e-9


def test_petersen_triangular_complement():
    # Kneser(5,2) and the line graph of K_5 partition the same pair set.
    pet = catalog_graph("petersen").adjacency_matrix()
    tri = catalog_graph("triangular5").adjacency_matrix()
    assert max_abs_diff(pet + tri + np.eye(10), np.ones((10, 10))) == 0.0


@pytest.mark.parametrize("name", ["petersen", "johnson83", "hamming33"])
def test_scheme_labels_are_distances(name):
    scheme = analyzed_scheme(name)
    g = build_graph(SCHEME_SPECS[name])
    assert np.array_equal(scheme.rel.labels, distance_data(g).dist)


@pytest.mark.parametrize("family, args", [
    ("johnson", (5, 2)),
    ("johnson", (5, 3)),
    ("johnson", (8, 3)),
    ("hamming", (3, 2)),
    ("hamming", (3, 3)),
])
def test_closed_form_tensor_matches_counting(family, args):
    closed, n = family_tensor(FamilySpec(family, args))
    rel = build_scheme(FamilySpec(family, args))
    assert n == rel.n
    assert np.array_equal(closed, validate_scheme(rel))


@pytest.mark.parametrize("spec", [FamilySpec("petersen"), FamilySpec("hoffman-singleton"),
                                  FamilySpec("paley", (13,))], ids=FamilySpec.label)
def test_family_tensor_validates_a_non_classical_scheme_once(monkeypatch, spec):
    calls = []
    validate = generators.validate_scheme
    monkeypatch.setattr(generators, "validate_scheme",
                        lambda rel: calls.append(rel.n) or validate(rel))
    p, n = family_tensor(spec)
    assert calls == [n]
    assert np.array_equal(p, validate(build_scheme(spec)))


def test_classical_tensor_matches_the_hand_derived_oracles():
    # All 821 members: J(n, k) with 2 <= n < 40, H(d, q) with d <= 8, q <= 11.
    assert len(ORACLE_MEMBERS) == 821
    for spec in ORACLE_MEMBERS:
        oracle = johnson_tensor_oracle if spec.name == "johnson" else hamming_tensor_oracle
        p, _ = family_tensor(spec)
        assert p.dtype == np.int64
        assert np.array_equal(p, oracle(*spec.args)), spec.label()


def test_closed_form_theta_column_matches_the_family_forms():
    # BCN Corollary 8.4.2 against the per-family eigenvalues of A:
    # (k - j)(n - k - j) - j for J(n, k) and d(q - 1) - qj for H(d, q).
    for spec in ORACLE_MEMBERS:
        _, _, col1 = _expected_closed_forms(spec)
        x, y = spec.args
        d = len(col1) - 1
        family = ([(y - j) * (x - y - j) - j for j in range(d + 1)] if spec.name == "johnson"
                  else [x * (y - 1) - y * j for j in range(d + 1)])
        assert col1 == family, spec.label()


def test_classical_tensor_of_the_parameters():
    # J(8, 3) is (3, 1, 1, 5).  Row j of p[1] lists p_1j^k, which is
    # tridiagonal with b = (15, 8, 3), a = (0, 6, 8, 6) and c = (1, 4, 9).
    p = classical_intersection_numbers(3, 1, 1, 5)
    assert p.tolist()[1] == [[0, 1, 0, 0], [15, 6, 4, 0], [0, 8, 8, 9], [0, 0, 3, 6]]
    assert np.array_equal(p, family_tensor(FamilySpec("johnson", (8, 5)))[0])


@pytest.mark.parametrize("args", [
    (0, 1, 0, 2),   # no class besides the identity
    (2, 1, 0, 0),   # b_0 = 0
    (2, 1, -1, 3),  # c_2 = 0
    (2, 1, 2, 4),   # {8, 2; 1, 6}: k_2 = 16/6
])
def test_classical_tensor_refuses_parameters_of_no_graph(args):
    with pytest.raises(ValueError):
        classical_intersection_numbers(*args)


def test_classical_tensor_beyond_int64_raises():
    # J(70, 35) has C(70, 35) > 2**63 points, so its degree row overflows.
    with pytest.raises(OverflowError):
        family_tensor(FamilySpec("johnson", (70, 35)))


@pytest.mark.parametrize("spec, points, adjacent", [
    # k-subsets in lexicographic order, adjacent when they share k - 1 points.
    (FamilySpec("johnson", (7, 4)), list(itertools.combinations(range(7), 4)),
     lambda x, y: len(set(x) & set(y)) == 3),
    # Words in lexicographic order, adjacent when they differ in one coordinate.
    (FamilySpec("hamming", (3, 4)), list(itertools.product(range(4), repeat=3)),
     lambda x, y: sum(a != b for a, b in zip(x, y)) == 1),
])
def test_johnson_and_hamming_graphs_by_definition(spec, points, adjacent):
    want = [[i, j] for i, j in itertools.combinations(range(len(points)), 2)
            if adjacent(points[i], points[j])]
    g = build_graph(spec)
    assert g.n == len(points)
    assert g.edges.tolist() == want


def test_johnson_tensor_margins():
    for n, k in [(6, 3), (7, 3), (9, 4), (10, 2)]:
        p, _ = family_tensor(FamilySpec("johnson", (n, k)))
        degrees = [int(p[i, i, 0]) for i in range(p.shape[0])]
        assert sum(degrees) == math.comb(n, k)
        assert p.min() >= 0
        sums = p.sum(axis=0)
        for j, kj in enumerate(degrees):
            assert np.all(sums[j] == kj)


def test_family_parameters_johnson83():
    params = family_parameters(FamilySpec("johnson", (8, 3)))
    assert params.n == 56
    assert params.degrees == (1, 15, 30, 10)
    assert params.multiplicities == (1, 7, 20, 28)
    assert max_abs_diff(params.P, JOHNSON83_P) < 1e-9


def test_family_parameters_hamming34():
    params = family_parameters(FamilySpec("hamming", (3, 4)))
    assert params.n == 64
    assert params.degrees == (1, 9, 27, 27)
    assert params.multiplicities == params.degrees
    assert np.allclose(params.P[:, 1], [9.0, 5.0, 1.0, -3.0], atol=1e-9)
    assert float(np.max(np.abs(params.P @ params.Q - 64 * np.eye(4)))) < 1e-9


def test_family_parameters_large_member():
    # The first Johnson member past the degree/diameter bound; parameters
    # come from the tensor without touching the 20825-point scheme.
    params = family_parameters(FamilySpec("johnson", (51, 3)))
    assert params.n == math.comb(51, 3) == 20825
    assert params.degrees[1] == 144
    assert params.multiplicities[1] == 50


def test_family_parameters_rejects_other_families():
    with pytest.raises((ValueError, MethodsDisagreeError)):
        family_parameters(FamilySpec("petersen"))
