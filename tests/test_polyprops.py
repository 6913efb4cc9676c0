"""Polynomial-structure verdicts: detectors, size conditions, and product
formulas, plus the cross-route consistency errors."""

import dataclasses
import functools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SCHEME_SPECS,
    analyzed_scheme,
    krein_trace_reference,
    projectors,
    same_evidence,
    sphere_of,
)
from polyscheme.errors import DenseLimitError, MethodsDisagreeError
from polyscheme.generators import (
    FamilySpec,
    _expected_closed_forms,
    build_scheme,
    family_parameters,
    family_tensor,
    hamming_intersection_numbers,
)
from polyscheme.graphs import adjacency_distances
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
from polyscheme.reports import HYPOTHESIS_NOT_MET
from polyscheme.schemes import RelationPartition, idempotents


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
            assert np.array_equal(dd.relation(t), oracle == t)
        assert not np.any(oracle > dd.diameter)


def test_check_p_large_rejects_a_verdict_for_another_class():
    pet = analyzed_scheme("petersen")
    with pytest.raises(ValueError):
        check_p_large(pet.params, 1, p_polynomial_ordering(pet.params, 2, pet.rel))


def test_analyze_scheme_explicit_matches_the_single_checks():
    scheme = analyzed_scheme("cube")
    params, rel, idems = scheme.params, scheme.rel, scheme.idems
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


def test_analyze_scheme_parametric_has_no_point_reports():
    analysis = analyze_scheme((hamming_intersection_numbers(3, 2), 8))
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
    idems = idempotents(rel)
    trace_route = krein_trace_reference(projectors(idems), idems.multiplicities)
    assert float(np.max(np.abs(ex.krein - trace_route))) <= 1e-7


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
