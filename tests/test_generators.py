"""Family constructions: vertex/edge counts, certificates for the two
strongly regular members, and the closed-form intersection tensors
against the counting route."""

import math

import numpy as np
import pytest

from conftest import SCHEME_SPECS, analyzed_scheme, catalog_graph, max_abs_diff
from polyscheme.errors import MethodsDisagreeError
from polyscheme.generators import (
    FamilySpec,
    build_graph,
    build_scheme,
    family_parameters,
    hamming_intersection_numbers,
    johnson_intersection_numbers,
)
from polyscheme.graphs import distance_data
from polyscheme.numerics import eigen_clusters
from polyscheme.schemes import validate_scheme

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
    if family == "johnson":
        closed = johnson_intersection_numbers(*args)
    else:
        closed = hamming_intersection_numbers(*args)
    counted = validate_scheme(build_scheme(FamilySpec(family, args)))
    assert np.array_equal(closed, counted)


def test_johnson_tensor_margins():
    for n, k in [(6, 3), (7, 3), (9, 4), (10, 2)]:
        p = johnson_intersection_numbers(n, k)
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
