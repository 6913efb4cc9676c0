"""Polynomial-structure verdicts: detectors, size conditions, and product
formulas, plus the cross-route consistency errors."""

import dataclasses
import functools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SCHEME_SPECS,
    analyzed_scheme,
    krein_trace_reference,
    projectors,
    same_evidence,
    sphere_of,
    tensor_index_adjacency_reference,
    walk_index_path_reference,
)
from polyscheme.errors import DenseLimitError, MethodsDisagreeError
from polyscheme.generators import (
    FamilySpec,
    _expected_closed_forms,
    build_scheme,
    family_parameters,
    family_tensor,
)
from polyscheme.graphs import adjacency_distances
from polyscheme.numerics import DEFAULT_TOL
from polyscheme.polyprops import (
    INCONCLUSIVE,
    NOT_POLYNOMIAL,
    POLYNOMIAL,
    PolyVerdict,
    analyze_scheme,
    check_p_large,
    check_product_formula_P,
    check_product_formula_Q,
    check_q_large,
    p_polynomial_ordering,
    q_polynomial_ordering,
)
from polyscheme import polyprops
from polyscheme.reports import HYPOTHESIS_NOT_MET
from polyscheme.schemes import RelationPartition, eigenmatrices, idempotents, validate_scheme


def test_verdict_validation():
    with pytest.raises(ValueError):
        PolyVerdict("R", 1, POLYNOMIAL)
    with pytest.raises(ValueError):
        PolyVerdict("P", 1, "maybe")
    with pytest.raises(ValueError):
        PolyVerdict("P", 1, POLYNOMIAL, ordering=(0, 2, 1))
    with pytest.raises(ValueError):
        PolyVerdict("P", 1, POLYNOMIAL, ordering=(1, 0))
    v = PolyVerdict("Q", 2, POLYNOMIAL, ordering=(0, 2, 1))
    assert v.to_dict()["ordering"] == [0, 2, 1]
    assert v.to_dict()["status"] == POLYNOMIAL


def test_index_range_checks():
    params = analyzed_scheme("petersen").params
    for fn in (p_polynomial_ordering, check_p_large, check_product_formula_P,
               q_polynomial_ordering, check_q_large, check_product_formula_Q):
        with pytest.raises(ValueError):
            fn(params, 0)
        with pytest.raises(ValueError):
            fn(params, 3)


def _petersen_with(matrix, index, value):
    """Petersen's parameters with P or Q (matrix) set to value(copy) at
    index: parameters no scheme has, for the branches the catalog misses."""
    params = analyzed_scheme("petersen").params
    m = getattr(params, matrix).copy()
    m[index] = value(m)
    return dataclasses.replace(params, **{matrix: m})


def _pet():
    return analyzed_scheme("petersen")


def _cube():
    return analyzed_scheme("cube")


def _j83():
    return analyzed_scheme("johnson83")


# Every verdict and refusal of the six checks: (status, reason, ordering,
# evidence without the lhs floats) or (error type, message).
NOT_SEPARATED = "degree not separated from the other eigenvalues"
Q_NOT_SEPARATED = "multiplicity not separated from the other column values"
PINNED = [
    ("P detector class 0", lambda: p_polynomial_ordering(_pet().params, 0),
     (ValueError, "class 0 outside 1..2")),
    ("P detector class d+1", lambda: p_polynomial_ordering(_pet().params, 3, _pet().rel),
     (ValueError, "class 3 outside 1..2")),
    ("P detector explicit", lambda: p_polynomial_ordering(_pet().params, 2, _pet().rel),
     ("polynomial", None, (0, 2, 1), {"mode": "explicit", "diameter": 2})),
    ("P detector parametric", lambda: p_polynomial_ordering(_cube().params, 1),
     ("polynomial", None, (0, 1, 2, 3), {"mode": "parametric"})),
    ("P detector disconnected", lambda: p_polynomial_ordering(_cube().params, 2, _cube().rel),
     ("not_polynomial", "relation graph disconnected", None,
      {"mode": "explicit", "diameter": None})),
    ("P detector diameter", lambda: p_polynomial_ordering(_j83().params, 2, _j83().rel),
     ("not_polynomial", "relation graph has diameter 2, not 3", None,
      {"mode": "explicit", "diameter": 2})),
    ("P detector not a path", lambda: p_polynomial_ordering(_cube().params, 3),
     ("not_polynomial", "intersection-number index graph is not a path from 0", None,
      {"mode": "parametric"})),
    ("P detector unseparated explicit",
     lambda: p_polynomial_ordering(_petersen_with("P", 2, lambda m: m[0]), 1, _pet().rel),
     ("inconclusive", NOT_SEPARATED, None,
      {"mode": "explicit", "diameter": 2, "candidate_ordering": [0, 1, 2]})),
    ("P detector unseparated parametric",
     lambda: p_polynomial_ordering(_petersen_with("P", 2, lambda m: m[0]), 1),
     ("inconclusive", NOT_SEPARATED, None,
      {"mode": "parametric", "candidate_ordering": [0, 1, 2]})),
    ("P detector point levels",
     lambda: p_polynomial_ordering(_j83().params, 1, RelationPartition.from_matrix(
         np.array([0, 1, 3, 2])[_j83().rel.labels], d=3)),
     (MethodsDisagreeError,
      "class-1 BFS from point 0 reaches point 11 at level 2, but its class 3 has index level 3")),
    ("P size class 0", lambda: check_p_large(_pet().params, 0),
     (ValueError, "class 0 outside 1..2")),
    ("P size class d+1", lambda: check_p_large(_pet().params, 3),
     (ValueError, "class 3 outside 1..2")),
    ("P size unseparated", lambda: check_p_large(_cube().params, 2),
     ("inconclusive", NOT_SEPARATED, None, {})),
    ("P size below the bound", lambda: check_p_large(_cube().params, 1),
     ("inconclusive", "n = 8 <= M(3, 2) = 10", None, {"n": 8, "degree": 3, "bound": 10})),
    ("P size above the bound", lambda: check_p_large(_pet().params, 1),
     ("polynomial", "n = 10 > M(3, 1) = 4", None, {"n": 10, "degree": 3, "bound": 4})),
    ("P size confirmed explicit",
     lambda: check_p_large(_pet().params, 1, p_polynomial_ordering(_pet().params, 1, _pet().rel)),
     ("polynomial", "n = 10 > M(3, 1) = 4", (0, 1, 2),
      {"n": 10, "degree": 3, "bound": 4, "confirmed_by": "explicit"})),
    ("P size confirmed parametric",
     lambda: check_p_large(_pet().params, 2, p_polynomial_ordering(_pet().params, 2)),
     ("polynomial", "n = 10 > M(6, 1) = 7", (0, 2, 1),
      {"n": 10, "degree": 6, "bound": 7, "confirmed_by": "parametric"})),
    ("P size detector of another class",
     lambda: check_p_large(_pet().params, 1, p_polynomial_ordering(_pet().params, 2, _pet().rel)),
     (ValueError, "detector verdict for P 2, not P 1")),
    ("P size detector of another kind",
     lambda: check_p_large(_pet().params, 1, q_polynomial_ordering(_pet().params, 1)),
     (ValueError, "detector verdict for Q 1, not P 1")),
    ("P size disagreement",
     lambda: check_p_large(_pet().params, 1, PolyVerdict("P", 1, NOT_POLYNOMIAL,
                                                         reason="relation graph disconnected")),
     (MethodsDisagreeError, "size condition n = 10 > 4 holds for class 1 but the direct "
                            "detector says not_polynomial: relation graph disconnected")),
    ("P formula class 0", lambda: check_product_formula_P(_pet().params, 0),
     (ValueError, "class 0 outside 1..2")),
    ("P formula class d+1", lambda: check_product_formula_P(_pet().params, 3),
     (ValueError, "class 3 outside 1..2")),
    ("P formula not distinct", lambda: check_product_formula_P(_cube().params, 2),
     ("inconclusive", "eigenvalues of the class are not mutually distinct", None, {})),
    ("P formula no match", lambda: check_product_formula_P(_j83().params, 2),
     ("not_polynomial", "no eigenspace index matches the product formula", None,
      {"matches": []})),
    ("P formula match", lambda: check_product_formula_P(_pet().params, 1),
     ("polynomial", None, None, {"matches": [2], "witness_l": 2})),
    ("P formula several matches",
     lambda: check_product_formula_P(_petersen_with("Q", 1, lambda m: m[2]), 1),
     ("polynomial", None, None,
      {"matches": [1, 2], "witness_l": 1, "anomaly": "multiple matching indices"})),
    ("Q detector eigenspace 0", lambda: q_polynomial_ordering(_pet().params, 0),
     (ValueError, "eigenspace 0 outside 1..2")),
    ("Q detector eigenspace d+1", lambda: q_polynomial_ordering(_pet().params, 3),
     (ValueError, "eigenspace 3 outside 1..2")),
    ("Q detector with sphere",
     lambda: q_polynomial_ordering(_pet().params, 2, sphere=sphere_of(_pet(), 2)),
     ("polynomial", None, (0, 2, 1), {"mode": "krein", "schur_diameter": 2})),
    ("Q detector without sphere", lambda: q_polynomial_ordering(_cube().params, 1),
     ("polynomial", None, (0, 1, 2, 3), {"mode": "krein"})),
    ("Q detector not a path", lambda: q_polynomial_ordering(_cube().params, 2),
     ("not_polynomial", "Krein-number index graph is not a path from 0", None,
      {"mode": "krein"})),
    ("Q detector not a path with sphere",
     lambda: q_polynomial_ordering(_j83().params, 3, sphere=sphere_of(_j83(), 3)),
     ("not_polynomial", "Krein-number index graph is not a path from 0", None,
      {"mode": "krein", "schur_diameter": 2})),
    ("Q detector unseparated",
     lambda: q_polynomial_ordering(_petersen_with("Q", 2, lambda m: m[0]), 1,
                                   sphere=sphere_of(_pet(), 1)),
     ("inconclusive", Q_NOT_SEPARATED, None, {"mode": "krein", "candidate_ordering": [0, 1, 2]})),
    ("Q detector disagreement",
     lambda: q_polynomial_ordering(dataclasses.replace(_pet().params, krein=np.where(
         np.arange(3)[:, None, None] == 1, 0.0, _pet().params.krein)), 1,
         sphere=sphere_of(_pet(), 1)),
     (MethodsDisagreeError,
      "Krein route says not_polynomial for eigenspace 1 but the Schur-diameter is 2 with d = 2")),
    ("Q size eigenspace 0", lambda: check_q_large(_pet().params, 0),
     (ValueError, "eigenspace 0 outside 1..2")),
    ("Q size eigenspace d+1", lambda: check_q_large(_pet().params, 3),
     (ValueError, "eigenspace 3 outside 1..2")),
    ("Q size unseparated", lambda: check_q_large(_cube().params, 2),
     ("inconclusive", Q_NOT_SEPARATED, None, {})),
    ("Q size non-integral multiplicity",
     lambda: check_q_large(_petersen_with("Q", (0, 1), lambda m: 5.001), 1),
     (ValueError, "non-integral multiplicity 5.001 for eigenspace 1")),
    ("Q size below the bound", lambda: check_q_large(_j83().params, 2),
     ("inconclusive", "n = 56 <= N(20, 2) = 230", None,
      {"n": 56, "multiplicity": 20, "bound": 230})),
    ("Q size above the bound", lambda: check_q_large(_j83().params, 1),
     ("polynomial", "n = 56 > N(7, 2) = 35", None, {"n": 56, "multiplicity": 7, "bound": 35})),
    ("Q formula eigenspace 0", lambda: check_product_formula_Q(_pet().params, 0),
     (ValueError, "eigenspace 0 outside 1..2")),
    ("Q formula eigenspace d+1", lambda: check_product_formula_Q(_pet().params, 3),
     (ValueError, "eigenspace 3 outside 1..2")),
    ("Q formula not distinct", lambda: check_product_formula_Q(_cube().params, 2),
     ("inconclusive", "column values of the eigenspace are not mutually distinct", None, {})),
    ("Q formula no match", lambda: check_product_formula_Q(_j83().params, 2),
     ("not_polynomial", "no class index matches the product formula", None, {"matches": []})),
    ("Q formula match", lambda: check_product_formula_Q(_pet().params, 2),
     ("polynomial", None, None, {"matches": [1], "witness_l": 1})),
    ("Q formula several matches",
     lambda: check_product_formula_Q(_petersen_with("P", 1, lambda m: m[2]), 1),
     ("polynomial", None, None,
      {"matches": [1, 2], "witness_l": 1, "anomaly": "multiple matching indices"})),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in PINNED],
                         ids=[row[0] for row in PINNED])
def test_pinned_verdicts_and_refusals(call, expected):
    if isinstance(expected[0], type):
        with pytest.raises(Exception) as info:
            call()
        assert (type(info.value), str(info.value)) == expected
    else:
        v = call()
        assert (v.status, v.reason, v.ordering,
                {k: x for k, x in v.evidence.items() if k != "lhs"}) == expected


def test_petersen_class1():
    scheme = analyzed_scheme("petersen")
    explicit = p_polynomial_ordering(scheme.params, 1, scheme.rel)
    parametric = p_polynomial_ordering(scheme.params, 1)
    assert explicit.status == parametric.status == POLYNOMIAL
    assert explicit.ordering == parametric.ordering == (0, 1, 2)

    qv = q_polynomial_ordering(scheme.params, 1, sphere=sphere_of(scheme, 1))
    assert qv.status == POLYNOMIAL
    assert qv.ordering == (0, 1, 2)
    assert qv.evidence["schur_diameter"] == 2

    size_p = check_p_large(scheme.params, 1, explicit)
    assert size_p.status == POLYNOMIAL
    assert size_p.reason == "n = 10 > M(3, 1) = 4"
    assert size_p.ordering == (0, 1, 2)
    assert size_p.evidence["confirmed_by"] == "explicit"
    size_q = check_q_large(scheme.params, 1)
    assert size_q.status == POLYNOMIAL
    assert size_q.evidence["bound"] == 6


def test_petersen_class2():
    # The distance-2 graph is the triangular graph T(5); the scheme is
    # P- and Q-polynomial with respect to it too, with classes 1, 2 swapped.
    scheme = analyzed_scheme("petersen")
    v = p_polynomial_ordering(scheme.params, 2, scheme.rel)
    assert v.status == POLYNOMIAL and v.ordering == (0, 2, 1)
    qv = q_polynomial_ordering(scheme.params, 2, sphere=sphere_of(scheme, 2))
    assert qv.status == POLYNOMIAL and qv.ordering == (0, 2, 1)
    assert check_p_large(scheme.params, 2).evidence["bound"] == 7
    assert check_q_large(scheme.params, 2).evidence["bound"] == 5


def test_petersen_product_formulas():
    params = analyzed_scheme("petersen").params
    fp = check_product_formula_P(params, 1)
    assert fp.status == POLYNOMIAL
    assert fp.evidence["witness_l"] == 2
    lhs = fp.evidence["lhs"]
    assert abs(lhs[0] - 5.0 / 3.0) < 1e-9
    assert abs(lhs[1] + 2.0 / 3.0) < 1e-9
    for h in (1, 2):
        assert abs(lhs[h - 1] + params.Q[2, h]) < 1e-9

    fq = check_product_formula_Q(params, 1)
    assert fq.status == POLYNOMIAL
    assert fq.evidence["witness_l"] == 2
    for h in (1, 2):
        assert abs(fq.evidence["lhs"][h - 1] + params.P[2, h]) < 1e-9

    assert check_product_formula_P(params, 2).evidence["witness_l"] == 1
    assert check_product_formula_Q(params, 2).evidence["witness_l"] == 1


def test_cube_class1():
    scheme = analyzed_scheme("cube")
    explicit = p_polynomial_ordering(scheme.params, 1, scheme.rel)
    assert explicit.status == POLYNOMIAL
    assert explicit.ordering == (0, 1, 2, 3)
    assert p_polynomial_ordering(scheme.params, 1).ordering == (0, 1, 2, 3)
    qv = q_polynomial_ordering(scheme.params, 1, sphere=sphere_of(scheme, 1))
    assert qv.status == POLYNOMIAL
    assert qv.evidence["schur_diameter"] == 3
    assert check_product_formula_P(scheme.params, 1).evidence["witness_l"] == 3
    assert check_product_formula_Q(scheme.params, 1).evidence["witness_l"] == 3


def test_cube_size_conditions_inconclusive():
    params = analyzed_scheme("cube").params
    v = check_p_large(params, 1)
    assert v.status == INCONCLUSIVE
    assert v.reason == "n = 8 <= M(3, 2) = 10"
    v = check_q_large(params, 1)
    assert v.status == INCONCLUSIVE
    assert v.evidence["bound"] == 9


def test_cube_refuted_classes():
    # Classes 2 (two disjoint 4-cliques) and 3 (a perfect matching) are
    # refuted structurally even though their eigenvalue columns repeat.
    scheme = analyzed_scheme("cube")
    for j in (2, 3):
        explicit = p_polynomial_ordering(scheme.params, j, scheme.rel)
        assert explicit.status == NOT_POLYNOMIAL
        assert explicit.reason == "relation graph disconnected"
        parametric = p_polynomial_ordering(scheme.params, j)
        assert parametric.status == NOT_POLYNOMIAL
        qv = q_polynomial_ordering(scheme.params, j, sphere=sphere_of(scheme, j))
        assert qv.status == NOT_POLYNOMIAL
        assert "schur_diameter" not in qv.evidence


def test_cube_unseparated_paths():
    params = analyzed_scheme("cube").params
    for j in (2, 3):
        v = check_p_large(params, j)
        assert v.status == INCONCLUSIVE
        assert "not separated" in v.reason
        v = check_product_formula_P(params, j)
        assert v.status == INCONCLUSIVE
        assert "mutually distinct" in v.reason
        assert check_q_large(params, j).status == INCONCLUSIVE
        assert check_product_formula_Q(params, j).status == INCONCLUSIVE


def test_complete_graph_everything_trivially_polynomial():
    scheme = analyzed_scheme("complete4")
    assert p_polynomial_ordering(scheme.params, 1, scheme.rel).ordering == (0, 1)
    assert q_polynomial_ordering(scheme.params, 1, sphere=sphere_of(scheme, 1)).ordering == (0, 1)
    assert check_p_large(scheme.params, 1).status == POLYNOMIAL
    assert check_q_large(scheme.params, 1).status == POLYNOMIAL
    assert check_product_formula_P(scheme.params, 1).evidence["witness_l"] == 1
    assert check_product_formula_Q(scheme.params, 1).evidence["witness_l"] == 1


def test_cycle6_verdicts():
    scheme = analyzed_scheme("cycle6")
    v1 = p_polynomial_ordering(scheme.params, 1, scheme.rel)
    assert v1.status == POLYNOMIAL and v1.ordering == (0, 1, 2, 3)
    for j in (2, 3):
        assert p_polynomial_ordering(scheme.params, j, scheme.rel).status == NOT_POLYNOMIAL
        assert p_polynomial_ordering(scheme.params, j).status == NOT_POLYNOMIAL
        assert q_polynomial_ordering(
            scheme.params, j, sphere=sphere_of(scheme, j)).status == NOT_POLYNOMIAL
    q1 = q_polynomial_ordering(scheme.params, 1, sphere=sphere_of(scheme, 1))
    assert q1.status == POLYNOMIAL
    assert q1.evidence["schur_diameter"] == 3


def test_johnson83_class2_not_polynomial():
    params = analyzed_scheme("johnson83").params
    v = check_product_formula_P(params, 2)
    assert v.status == NOT_POLYNOMIAL
    assert v.evidence["matches"] == []
    assert check_product_formula_Q(params, 2).status == NOT_POLYNOMIAL


def test_q_size_threshold_neighbors():
    # J(6,3) sits exactly on the dimension bound; J(7,3) clears it.
    below = check_q_large(family_parameters(FamilySpec("johnson", (6, 3))), 1)
    assert below.status == INCONCLUSIVE
    assert below.reason == "n = 20 <= N(5, 2) = 20"
    above = check_q_large(family_parameters(FamilySpec("johnson", (7, 3))), 1)
    assert above.status == POLYNOMIAL
    assert above.reason == "n = 35 > N(6, 2) = 27"


def test_size_conditions_never_refute():
    for name in sorted(SCHEME_SPECS):
        params = analyzed_scheme(name).params
        for j in range(1, params.d + 1):
            assert check_p_large(params, j).status != NOT_POLYNOMIAL
            assert check_q_large(params, j).status != NOT_POLYNOMIAL


def test_witness_is_last_of_ordering():
    # Whenever the detector certifies an ordering, the product-formula
    # witness must be its final index, on both sides.
    seen = 0
    for name in sorted(SCHEME_SPECS):
        scheme = analyzed_scheme(name)
        for j in range(1, scheme.params.d + 1):
            pv = p_polynomial_ordering(scheme.params, j, scheme.rel)
            fp = check_product_formula_P(scheme.params, j)
            if pv.status == POLYNOMIAL and fp.status == POLYNOMIAL:
                assert fp.evidence["witness_l"] == pv.ordering[-1]
                seen += 1
            qv = q_polynomial_ordering(scheme.params, j, sphere=sphere_of(scheme, j))
            fq = check_product_formula_Q(scheme.params, j)
            if qv.status == POLYNOMIAL and fq.status == POLYNOMIAL:
                assert fq.evidence["witness_l"] == qv.ordering[-1]
    assert seen >= 8


def test_p_size_disagreement_is_an_error():
    # Parameters say "large", but the paired partition has a disconnected
    # class-1 graph (two 5-cliques): the routes must not both be believed.
    pet = analyzed_scheme("petersen")
    lab = np.full((10, 10), 2, dtype=int)
    for half in (range(5), range(5, 10)):
        for x in half:
            for y in half:
                lab[x, y] = 0 if x == y else 1
    rel_fake = RelationPartition.from_matrix(lab)
    with pytest.raises(MethodsDisagreeError):
        check_p_large(pet.params, 1, p_polynomial_ordering(pet.params, 1, rel_fake))


def test_q_krein_schur_disagreement_is_an_error():
    pet = analyzed_scheme("petersen")
    tampered = pet.params.krein.copy()
    tampered[1] = 0.0
    params_t = dataclasses.replace(pet.params, krein=tampered)
    with pytest.raises(MethodsDisagreeError):
        q_polynomial_ordering(params_t, 1, sphere=sphere_of(pet, 1))
    # Without the embedding there is no cross-check to disagree with.
    v = q_polynomial_ordering(params_t, 1)
    assert v.status == NOT_POLYNOMIAL


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_detector_diameter_matches_networkx(name):
    scheme = analyzed_scheme(name)
    n = scheme.rel.n
    for j in range(1, scheme.params.d + 1):
        g = nx.from_numpy_array((scheme.rel.labels == j).astype(int))
        expected = nx.diameter(g) if nx.is_connected(g) else None
        v = p_polynomial_ordering(scheme.params, j, scheme.rel)
        assert v.evidence["diameter"] == expected
        # The level masks are the networkx distance classes, pair by pair.
        oracle = np.full((n, n), -1)
        for x, row in nx.all_pairs_shortest_path_length(g):
            for y, t in row.items():
                oracle[x, y] = t
        dd = adjacency_distances(scheme.rel.labels == j)
        assert dd.is_connected() == (expected is not None)
        for t in range(dd.diameter + 1):
            assert np.array_equal(dd.dist == t, oracle == t)
        assert not np.any(oracle > dd.diameter)


def index_path(tensor, j, threshold):
    return polyprops._path_ordering(polyprops._index_levels(tensor, j, threshold), j)


@st.composite
def index_tensors(draw):
    """A tensor with d = 1..6 whose slice j holds a planted path from 0,
    each link in a random orientation and, half the time, j second; plus a
    few stray entries that may break it: on the diagonal, in either
    orientation, and on either side of both thresholds."""
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        tensor = np.zeros((d + 1,) * 3, dtype=np.int64)
        link, stray = st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(-3, 3)
    else:
        tensor = np.zeros((d + 1,) * 3)
        link = st.floats(0.6, 2.0) | st.floats(-2.0, -0.6)
        stray = st.floats(-2.0, 2.0) | st.sampled_from([0.5, -0.4, 1e-9, -2e-9, 5e-10, 0.0])
    j = draw(st.integers(1, d))
    order = [0, *draw(st.permutations(range(1, d + 1)))]
    if draw(st.booleans()):
        order.sort(key=lambda i: (i != 0, i != j))
    for h, i in zip(order, order[1:]):
        if draw(st.booleans()):
            h, i = i, h
        tensor[j, h, i] = draw(link)
    index = st.integers(0, d)
    for k, h, i, v in draw(st.lists(st.tuples(st.just(j) | index, index, index, stray),
                                    max_size=3)):
        tensor[k, h, i] = v
    return tensor


@settings(max_examples=300, deadline=None)
@given(index_tensors(), st.sampled_from([0.5, 1e-9]))
def test_index_levels_path_matches_the_walk(tensor, threshold):
    d = tensor.shape[0] - 1
    for j in range(1, d + 1):
        adj = tensor_index_adjacency_reference(tensor, j, threshold)
        assert index_path(tensor, j, threshold) == walk_index_path_reference(adj, d, j)


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_index_levels_path_matches_the_walk_on_the_catalog(name):
    params = analyzed_scheme(name).params
    for tensor, threshold in ((params.p, 0.5), (params.krein, DEFAULT_TOL)):
        for j in range(1, params.d + 1):
            adj = tensor_index_adjacency_reference(tensor, j, threshold)
            assert index_path(tensor, j, threshold) == \
                walk_index_path_reference(adj, params.d, j)


def test_point_levels_certify_the_index_levels():
    """J(8,3)'s intersection numbers against its partition with classes 2
    and 3 swapped, itself a valid scheme: class 1 still has diameter 3,
    but the BFS from point 0 meets the class-3 points at distance 2."""
    scheme = analyzed_scheme("johnson83")
    assert p_polynomial_ordering(scheme.params, 1, scheme.rel).ordering == (0, 1, 2, 3)
    swapped = RelationPartition.from_matrix(np.array([0, 1, 3, 2])[scheme.rel.labels], d=3)
    with pytest.raises(MethodsDisagreeError, match="class-1 BFS from point 0 reaches point"):
        p_polynomial_ordering(scheme.params, 1, swapped)


def test_explicit_detector_holds_no_dense_array():
    """At J(12,4), n = 495, the explicit detector calls peak below 16 n^2
    bytes, two n x n float64 arrays; an all-pairs level loop on each class
    mask peaks near 68 n^2."""
    rel = build_scheme(FamilySpec("johnson", (12, 4)))
    params = eigenmatrices(validate_scheme(rel), rel.n)
    tracemalloc.start()
    try:
        verdicts = [p_polynomial_ordering(params, j, rel) for j in range(1, params.d + 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.status for v in verdicts] == [POLYNOMIAL, NOT_POLYNOMIAL, NOT_POLYNOMIAL,
                                            NOT_POLYNOMIAL]
    assert peak < 16 * rel.n ** 2


def test_check_p_large_rejects_a_verdict_for_another_class():
    pet = analyzed_scheme("petersen")
    with pytest.raises(ValueError):
        check_p_large(pet.params, 1, p_polynomial_ordering(pet.params, 2, pet.rel))


def test_analyze_scheme_explicit_matches_the_single_checks():
    scheme = analyzed_scheme("cube")
    params, rel = scheme.params, scheme.rel
    analysis = analyze_scheme(rel)
    assert np.array_equal(analysis.params.P, params.P)
    expected = []
    for j in range(1, params.d + 1):
        direct = p_polynomial_ordering(params, j, rel)
        expected += [direct, check_p_large(params, j, direct), check_product_formula_P(params, j),
                     q_polynomial_ordering(params, j, sphere=sphere_of(scheme, j)),
                     check_q_large(params, j), check_product_formula_Q(params, j)]
    assert [v.to_dict() for v in analysis.verdicts] == [v.to_dict() for v in expected]
    # Eigenspaces 2 and 3 embed the cube with repeated points.
    assert [r.subject for r in analysis.reports] == [
        "sphere(n=8, m=3, s=3)", "sphere(eigenspace=2)", "sphere(eigenspace=3)"]
    assert {r.status for r in analysis.reports} == {HYPOTHESIS_NOT_MET}


def test_both_routes_share_one_computation_of_the_parameters(scheme_case):
    # The explicit route reads its parameters off the validated
    # intersection numbers, as the parametric route reads them off the
    # tensor: the same floats, not two computations that agree.
    explicit = analyze_scheme(scheme_case.rel).params
    parametric = analyze_scheme((scheme_case.p, scheme_case.rel.n)).params
    assert explicit.multiplicities == parametric.multiplicities
    for name in ("P", "Q", "krein"):
        assert np.array_equal(getattr(explicit, name), getattr(parametric, name))


def test_analyze_scheme_parametric_has_no_point_reports():
    analysis = analyze_scheme(family_tensor(FamilySpec("hamming", (3, 2))))
    assert len(analysis.verdicts) == 6 * 3
    assert analysis.verdicts[0].evidence["mode"] == "parametric"
    assert "confirmed_by" not in analysis.verdicts[1].evidence
    assert analysis.reports == []


def test_johnson_12_4_routes_agree_at_scale():
    """J(12,4), n = 495: the explicit route against the parametric route
    and the closed forms, and its Krein numbers from P and Q against trace
    products of its own dense idempotents."""
    spec = FamilySpec("johnson", (12, 4))
    rel = build_scheme(spec)
    explicit = analyze_scheme(rel)
    parametric = analyze_scheme(family_tensor(spec))
    ex, par = explicit.params, parametric.params
    degrees, mults, col1 = _expected_closed_forms(spec)
    assert (ex.n, ex.d) == (par.n, par.d) == (495, 4)
    assert list(ex.degrees) == list(par.degrees) == degrees
    assert list(ex.multiplicities) == list(par.multiplicities) == mults
    assert float(np.max(np.abs(ex.P[:, 1] - col1))) <= 1e-9
    assert float(np.max(np.abs(ex.P - par.P))) <= 1e-9
    assert float(np.max(np.abs(ex.Q - par.Q))) <= 1e-9
    assert float(np.max(np.abs(ex.krein - par.krein))) <= 1e-7
    assert [(v.kind, v.base_index, v.status, v.ordering) for v in explicit.verdicts] == \
        [(v.kind, v.base_index, v.status, v.ordering) for v in parametric.verdicts]
    assert explicit.verdicts[3].ordering == (0, 1, 2, 3, 4)
    blocks = idempotents(rel, ex)
    trace_route = krein_trace_reference(projectors(blocks), [u.shape[1] for u in blocks])
    assert float(np.max(np.abs(ex.krein - trace_route))) <= 1e-7


def test_pair_read_error_does_not_reach_the_verdicts(monkeypatch):
    """Paley(61), whose P is irrational, so its idempotents come from the
    eigensolve, with the pair-read second eigenmatrix off by about 1.8e-9,
    above the default tol: row 0 of the eigensolve's vectors is scaled by
    1 + 4e-10, within the Gram check's allowance.  P and Q come from the
    intersection numbers, not the blocks, so Q, the Krein numbers and every
    verdict still equal the parametric route's."""
    spec = FamilySpec("paley", (61,))
    rel = build_scheme(spec)
    parametric = analyze_scheme(family_tensor(spec))
    eigh = np.linalg.eigh

    def skewed(a):
        w, vecs = eigh(a)
        vecs[0] *= 1 + 4e-10
        return w, vecs

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    blocks = []
    monkeypatch.setattr(polyprops, "idempotents", lambda *args: blocks.extend(idempotents(*args)))
    explicit = analyze_scheme(rel)
    ex, par = explicit.params, parametric.params
    # Every row contains every class, so each class's first pair is (0, y).
    ys = [int(np.argmax(rel.labels[0] == i)) for i in range(ex.d + 1)]
    read = ex.n * np.column_stack([u[0] @ u[ys].T for u in blocks])
    assert float(np.max(np.abs(read[1:] - par.Q[1:]))) > 1.5e-9
    assert float(np.max(np.abs(ex.Q - par.Q))) <= 1e-12
    assert float(np.max(np.abs(ex.krein - par.krein))) <= 1e-12
    # The size condition's ordering comes from the explicit detector only.
    assert [(v.kind, v.base_index, v.status) for v in explicit.verdicts] == \
        [(v.kind, v.base_index, v.status) for v in parametric.verdicts]
    for e, q in zip(explicit.verdicts, parametric.verdicts):
        assert q.ordering is None or e.ordering == q.ordering


def test_analyze_scheme_refuses_before_the_axioms():
    # A partition that breaks axiom 1 is still refused on size first.
    lab = np.ones((6, 6), dtype=int)
    with pytest.raises(DenseLimitError):
        analyze_scheme(RelationPartition.from_matrix(lab), max_dense=5)


PERMUTATION_SPECS = {
    "cycle7": FamilySpec("cycle", (7,)),
    "hamming33": FamilySpec("hamming", (3, 3)),
    "johnson73": FamilySpec("johnson", (7, 3)),
    "johnson83": FamilySpec("johnson", (8, 3)),
    "petersen": FamilySpec("petersen"),
}


@functools.cache
def unpermuted_analysis(name):
    rel = build_scheme(PERMUTATION_SPECS[name])
    return rel, analyze_scheme(rel)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(PERMUTATION_SPECS)), st.integers(0, 2**32 - 1))
def test_scheme_reports_ignore_point_labels(name, seed):
    """Relabelling the points moves the representative pairs and rotates
    the eigenvector blocks, but leaves every quantity of the analysis,
    and the eigenspace order, unchanged."""
    rel, base = unpermuted_analysis(name)
    perm = np.random.default_rng(seed).permutation(rel.n)
    got = analyze_scheme(RelationPartition.from_matrix(rel.labels[np.ix_(perm, perm)], d=rel.d))
    assert got.params.degrees == base.params.degrees
    assert got.params.multiplicities == base.params.multiplicities
    assert float(np.max(np.abs(got.params.P - base.params.P))) <= 1e-9
    assert float(np.max(np.abs(got.params.Q - base.params.Q))) <= 1e-9
    assert len(got.verdicts) == len(base.verdicts)
    for v, b in zip(got.verdicts, base.verdicts):
        assert (v.kind, v.base_index, v.status, v.reason, v.ordering) == \
            (b.kind, b.base_index, b.status, b.reason, b.ordering)
        assert same_evidence(v.evidence, b.evidence)
    assert [(r.subject, r.status) for r in got.reports] == \
        [(r.subject, r.status) for r in base.reports]
    for r, b in zip(got.reports, base.reports):
        assert same_evidence(r.evidence, b.evidence)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(PERMUTATION_SPECS)), st.integers(0, 2**32 - 1))
@example("johnson73", 0)  # sigma = tau^-1 = (0 3 1 2); the sphere reports move
def test_scheme_reports_ignore_class_labels(name, seed):
    """Renaming classes 1..d by sigma renames the columns of P, and through
    the class-1 eigenvalues it may reorder the eigenspaces by some tau.
    Degrees, multiplicities, verdicts, orderings and witnesses map through
    sigma (classes) and tau (eigenspaces); each sphere report moves with
    its eigenspace."""
    rel, base = unpermuted_analysis(name)
    d = rel.d
    sigma = np.concatenate(([0], 1 + np.random.default_rng(seed).permutation(d)))
    got = analyze_scheme(RelationPartition.from_matrix(sigma[rel.labels], d=d))
    # Row tau[j] of the relabelled P, read in the old class order, is row j.
    renamed = got.params.P[:, sigma]
    tau = []
    for row in base.params.P:
        (match,) = np.flatnonzero(np.max(np.abs(renamed - row), axis=1) <= 1e-9)
        tau.append(int(match))
    assert sorted(tau) == list(range(d + 1)) and tau[0] == 0
    for i in range(d + 1):
        assert got.params.degrees[sigma[i]] == base.params.degrees[i]
        assert got.params.multiplicities[tau[i]] == base.params.multiplicities[i]
    for k in range(1, d + 1):
        for offset in range(6):
            rename = sigma if offset < 3 else tau
            b = base.verdicts[6 * (k - 1) + offset]
            v = got.verdicts[6 * (rename[k] - 1) + offset]
            assert (v.kind, v.base_index, v.status) == (b.kind, rename[k], b.status)
            if b.ordering is None:
                assert v.ordering is None
            else:
                assert v.ordering == tuple(int(rename[t]) for t in b.ordering)
            for key in ("witness_l", "candidate_ordering"):
                assert (key in v.evidence) == (key in b.evidence)
            if "witness_l" in b.evidence:
                assert v.evidence["witness_l"] == rename[b.evidence["witness_l"]]
            if "candidate_ordering" in b.evidence:
                assert v.evidence["candidate_ordering"] == \
                    [int(rename[t]) for t in b.evidence["candidate_ordering"]]
        b, r = base.reports[k - 1], got.reports[tau[k] - 1]
        assert r.status == b.status
        assert r.subject == b.subject.replace(f"eigenspace={k})", f"eigenspace={tau[k]})")
        assert same_evidence(r.evidence, b.evidence)
