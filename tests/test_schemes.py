"""Association-scheme layer: axiom validation against a brute-force
counting oracle, idempotents against the graph-side projectors, and the
two eigenmatrix routes against each other."""

import functools

import numpy as np
import pytest

from conftest import (
    SCHEME_SPECS,
    analyzed_scheme,
    catalog_graph,
    idempotents_reference,
    krein_trace_reference,
    max_abs_diff,
    projectors,
    validate_scheme_axiom_4_reference,
)
from polyscheme.errors import (
    DegenerateElementError,
    DenseLimitError,
    ParseError,
    SchemeAxiomError,
)
from polyscheme.generators import FamilySpec, build_scheme
from polyscheme.graphs import distance_data, spectral_projectors
from polyscheme.schemes import (
    SEED_SETS,
    RelationPartition,
    SchemeParameters,
    eigenmatrices,
    format_intersection_tensor,
    format_relation_matrix,
    from_distance_data,
    idempotents,
    parametric_parameters,
    parse_intersection_tensor,
    parse_relation_matrix,
    validate_scheme,
)

PETERSEN_P = np.array([
    [1.0, 3.0, 6.0],
    [1.0, 1.0, -2.0],
    [1.0, -2.0, 1.0],
])
PETERSEN_Q = np.array([
    [1.0, 5.0, 4.0],
    [1.0, 5.0 / 3.0, -8.0 / 3.0],
    [1.0, -5.0 / 3.0, 2.0 / 3.0],
])


def brute_tensor(rel):
    """Count triangles pair by pair; asserts constancy along the way."""
    lab = rel.labels
    n, d = rel.n, rel.d
    p = np.full((d + 1, d + 1, d + 1), -1, dtype=int)
    for x in range(n):
        for y in range(n):
            k = int(lab[x, y])
            counts = np.zeros((d + 1, d + 1), dtype=int)
            for z in range(n):
                counts[lab[x, z], lab[z, y]] += 1
            for i in range(d + 1):
                for j in range(d + 1):
                    if p[i, j, k] == -1:
                        p[i, j, k] = counts[i, j]
                    assert p[i, j, k] == counts[i, j]
    return p


def test_relation_partition_validation():
    with pytest.raises(ValueError):
        RelationPartition.from_matrix([[0, 1, 1], [1, 0, 1]])
    with pytest.raises(ValueError):
        RelationPartition.from_matrix([[0]])
    with pytest.raises(ValueError):
        RelationPartition.from_matrix([[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        RelationPartition.from_matrix([[0, 2], [2, 0]], d=1)


def test_relation_partition_accessors():
    rel = analyzed_scheme("petersen").rel
    assert rel.n == 10 and rel.d == 2
    assert tuple(int(np.count_nonzero(rel.labels == i)) for i in range(3)) == (10, 30, 60)
    a1 = rel.adjacency(1)
    assert int(a1.sum()) == 30
    with pytest.raises(ValueError):
        rel.adjacency(3)


def test_from_distance_data_rejects_disconnected():
    from polyscheme.graphs import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        from_distance_data(distance_data(g))


def test_validate_scheme_matches_brute_oracle():
    scheme = analyzed_scheme("petersen")
    assert np.array_equal(scheme.p, brute_tensor(scheme.rel))


def _one_symmetric_swap(rel, seed):
    """rel with the labels of two off-diagonal pairs from different classes
    exchanged, on both triangles; seed None leaves rel unchanged."""
    if seed is None:
        return rel
    lab = np.array(rel.labels)
    rng = np.random.default_rng(seed)
    x1, y1 = rng.choice(rel.n, size=2, replace=False)
    while True:
        x2, y2 = rng.choice(rel.n, size=2, replace=False)
        if lab[x2, y2] != lab[x1, y1]:
            break
    a, b = lab[x1, y1], lab[x2, y2]
    lab[x1, y1] = lab[y1, x1] = b
    lab[x2, y2] = lab[y2, x2] = a
    return RelationPartition.from_matrix(lab, d=rel.d)


def _axioms_outcome(fn, rel):
    try:
        return fn(rel).tolist()
    except SchemeAxiomError as err:
        return err.axiom, err.witnesses, str(err)


@pytest.mark.parametrize("spec", [FamilySpec("johnson", (6, 3)), FamilySpec("hamming", (3, 3))],
                         ids=["johnson63", "hamming33"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_validate_scheme_matches_int64_reference(spec, seed):
    rel = _one_symmetric_swap(build_scheme(spec), seed)
    outcome = _axioms_outcome(validate_scheme, rel)
    assert outcome == _axioms_outcome(validate_scheme_axiom_4_reference, rel)
    assert (seed is None) == isinstance(outcome, list)


def test_axiom_one_diagonal():
    lab = [[1, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(SchemeAxiomError) as err:
        validate_scheme(RelationPartition.from_matrix(lab))
    assert err.value.axiom == 1
    assert err.value.witnesses == [(0, 0)]


def test_axiom_one_off_diagonal():
    lab = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    with pytest.raises(SchemeAxiomError) as err:
        validate_scheme(RelationPartition.from_matrix(lab, d=1))
    assert err.value.axiom == 1
    assert err.value.witnesses == [(0, 1)]


def test_axiom_two_empty_class():
    lab = [[0, 1], [1, 0]]
    with pytest.raises(SchemeAxiomError) as err:
        validate_scheme(RelationPartition.from_matrix(lab, d=2))
    assert err.value.axiom == 2


def test_axiom_three_asymmetric():
    lab = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    with pytest.raises(SchemeAxiomError) as err:
        validate_scheme(RelationPartition.from_matrix(lab))
    assert err.value.axiom == 3
    assert err.value.witnesses == [(0, 1), (1, 0)]


def test_axiom_four_path_partition():
    # The 3-path distance partition fails regularity: endpoints and the
    # middle vertex see different p_{1,1}^0.
    lab = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(SchemeAxiomError) as err:
        validate_scheme(RelationPartition.from_matrix(lab))
    assert err.value.axiom == 4
    assert err.value.witnesses == [(0, 0), (1, 1)]


def test_idempotents_match_graph_projectors():
    scheme = analyzed_scheme("petersen")
    family = spectral_projectors(catalog_graph("petersen"))
    assert len(scheme.idems.blocks) == len(family.blocks) == 3
    for i, e in enumerate(projectors(scheme.idems)):
        assert max_abs_diff(e, family.projector(i)) < 1e-9


# The catalog, the five explicit inputs of the benchmark's scheme workload,
# and the cube with classes 1 and 3 swapped: its class 1 is the antipodal
# matching, whose eigenvalue -1 is shared by eigenspaces of multiplicity 1
# and 3, so the canonical order needs its tie-break.
ORACLE_SPECS = {
    **SCHEME_SPECS,
    "hamming35": FamilySpec("hamming", (3, 5)),
    "hamming43": FamilySpec("hamming", (4, 3)),
    "hamming52": FamilySpec("hamming", (5, 2)),
    "johnson93": FamilySpec("johnson", (9, 3)),
    "johnson94": FamilySpec("johnson", (9, 4)),
}


@functools.cache
def oracle_scheme(name):
    if name == "cube-antipodal-first":
        return RelationPartition.from_matrix(np.choose(analyzed_scheme("cube").rel.labels,
                                                       [0, 3, 2, 1]))
    return build_scheme(ORACLE_SPECS[name])


@pytest.mark.parametrize("seed_set", sorted(SEED_SETS))
@pytest.mark.parametrize("name", sorted([*ORACLE_SPECS, "cube-antipodal-first"]))
def test_idempotents_match_dense_reference(name, seed_set):
    rel = oracle_scheme(name)
    seeds = SEED_SETS[seed_set]
    ref = idempotents_reference(rel, seeds=seeds)
    idems = idempotents(rel, seeds=seeds)
    params = eigenmatrices(rel, idems, p=validate_scheme(rel))
    assert idems.multiplicities == params.multiplicities == tuple(ref.multiplicities)
    # Projector by projector, so the eigenspace order is compared too.
    assert len(idems.blocks) == len(ref.projectors)
    for e, e_ref in zip(projectors(idems), ref.projectors):
        assert float(np.max(np.abs(e - e_ref))) < 1e-9
    for got in (idems.eigenvalues, params.P):
        assert float(np.max(np.abs(got - ref.P))) < 1e-9
    assert float(np.max(np.abs(params.Q - ref.Q))) < 1e-9


def test_eigenspace_ties_go_to_the_smaller_multiplicity():
    rel = oracle_scheme("cube-antipodal-first")
    params = eigenmatrices(rel, idempotents(rel))
    assert float(np.max(np.abs(params.P[:, 1] - [1.0, 1.0, -1.0, -1.0]))) < 1e-9
    assert params.multiplicities == (1, 3, 1, 3)


def test_validate_scheme_refuses_before_allocating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an n x n array was allocated above the dense limit")

    rel = build_scheme(FamilySpec("johnson", (6, 3)))
    monkeypatch.setattr(RelationPartition, "adjacency", fail)
    monkeypatch.setattr(np, "eye", fail)
    with pytest.raises(DenseLimitError):
        validate_scheme(rel, max_dense=5)


def test_idempotents_exhaust_seeds():
    rel = analyzed_scheme("cycle5").rel
    with pytest.raises(DegenerateElementError):
        idempotents(rel, seeds=())


def test_idempotent_family_properties(scheme_case):
    idems = projectors(scheme_case.idems)
    params = scheme_case.params
    n, d = params.n, params.d
    assert len(idems) == d + 1
    assert max_abs_diff(idems[0], np.ones((n, n)) / n) < 1e-9
    total = np.zeros((n, n))
    for j, e in enumerate(idems):
        assert max_abs_diff(e @ e, e) < 1e-7
        tr = float(np.trace(e))
        assert abs(tr - params.multiplicities[j]) < 1e-7
        for other in idems[j + 1:]:
            assert float(np.max(np.abs(e @ other))) < 1e-7
        total += e
    assert max_abs_diff(total, np.eye(n)) < 1e-7
    assert sum(params.multiplicities) == n


def test_idempotents_diagonalize_classes(scheme_case):
    # A_i E_j = P[j, i] E_j: every class matrix acts as a scalar.
    rel, idems, params = scheme_case.rel, scheme_case.idems, scheme_case.params
    for i in range(params.d + 1):
        ai = rel.adjacency(i).astype(float)
        for j, e in enumerate(projectors(idems)):
            assert float(np.max(np.abs(ai @ e - params.P[j, i] * e))) < 1e-7


def test_eigenmatrices_petersen_frozen():
    params = analyzed_scheme("petersen").params
    assert params.degrees == (1, 3, 6)
    assert params.multiplicities == (1, 5, 4)
    assert max_abs_diff(params.P, PETERSEN_P) < 1e-9
    assert max_abs_diff(params.Q, PETERSEN_Q) < 1e-9
    # The comparison is entrywise, so a transposed eigenmatrix fails it.
    assert max_abs_diff(params.P.T, PETERSEN_P) > 1.0
    assert max_abs_diff(params.Q.T, PETERSEN_Q) > 1.0


def test_eigenmatrix_identities(scheme_case):
    params = scheme_case.params
    n, d = params.n, params.d
    assert float(np.max(np.abs(params.P @ params.Q - n * np.eye(d + 1)))) < 1e-9
    inv_route = n * np.linalg.inv(params.P)
    assert float(np.max(np.abs(params.Q - inv_route))) < 1e-8
    k = np.array(params.degrees, dtype=float)
    m = np.array(params.multiplicities, dtype=float)
    assert float(np.max(np.abs(m[:, None] * params.P - k[None, :] * params.Q.T))) < 1e-8


def test_eigenmatrices_rejects_foreign_idempotents():
    petersen = analyzed_scheme("petersen")
    cycle5 = analyzed_scheme("cycle5")
    with pytest.raises(ValueError):
        eigenmatrices(cycle5.rel, petersen.idems)


def test_krein_two_routes_agree(scheme_case):
    # The formula from P and Q against trace products of the dense
    # idempotents of the reference route.
    params = scheme_case.params
    ref = idempotents_reference(scheme_case.rel)
    trace_route = krein_trace_reference(ref.projectors, ref.multiplicities)
    assert float(np.max(np.abs(params.krein - trace_route))) < 1e-7
    assert params.krein.min() > -1e-7


def test_krein_complete_graph():
    # One class: the only nontrivial Krein number is q_{1,1}^1 = n - 2.
    params = analyzed_scheme("complete4").params
    assert abs(params.krein[1, 1, 1] - 2.0) < 1e-9


def test_scheme_parameters_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        SchemeParameters(n=4, d=1, p=np.zeros((2, 2, 2)), P=eye, Q=eye,
                         degrees=(2, 2), multiplicities=(1, 3), krein=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        SchemeParameters(n=4, d=1, p=np.zeros((2, 2, 2)), P=eye, Q=eye,
                         degrees=(1, 2), multiplicities=(1, 3), krein=np.zeros((2, 2, 2)))


@pytest.mark.parametrize("name", ["johnson83", "hamming33", "cycle6"])
def test_parametric_route_matches_explicit(name):
    scheme = analyzed_scheme(name)
    par = parametric_parameters(scheme.p, scheme.params.n)
    assert par.multiplicities == scheme.params.multiplicities
    assert float(np.max(np.abs(par.P - scheme.params.P))) < 1e-9
    assert float(np.max(np.abs(par.Q - scheme.params.Q))) < 1e-9


def test_parametric_tensor_integrity():
    good = analyzed_scheme("cycle5").p
    with pytest.raises(ValueError):
        parametric_parameters(good[:2], 5)
    bad_sum = good.copy()
    bad_sum[1, 1, 2] += 1
    with pytest.raises(ValueError):
        parametric_parameters(bad_sum, 5)
    with pytest.raises(ValueError):
        parametric_parameters(good, 6)
    asym = good.copy()
    asym[1, 2, 0] += 1
    asym[1, 2, 2] -= 1
    with pytest.raises(ValueError):
        parametric_parameters(asym, 5)


def test_parametric_noncommuting_tensor():
    # Marginals all survive the tamper; only commutation catches it.
    q = analyzed_scheme("cycle5").p.copy()
    q[1, 1, 1] += 1
    q[1, 2, 1] -= 1
    q[2, 1, 1] -= 1
    q[2, 2, 1] += 1
    with pytest.raises(ValueError, match="commute"):
        parametric_parameters(q, 5)


def test_parametric_exhaust_seeds():
    with pytest.raises(DegenerateElementError):
        parametric_parameters(analyzed_scheme("cycle5").p, 5, seeds=())


def test_relation_matrix_round_trip():
    rel = analyzed_scheme("petersen").rel
    again = parse_relation_matrix(format_relation_matrix(rel))
    assert np.array_equal(again.labels, rel.labels)
    assert again.d == rel.d


def test_relation_matrix_comments_and_blanks_ignored():
    text = "# C_3\n3 1\n\n0 1 1  # row 0\n1 0 1\n1 1 0#last\n"
    assert parse_relation_matrix(text).labels.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_relation_matrix_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_relation_matrix("2 1\n0 1 0\n1 0\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_relation_matrix("")
    with pytest.raises(ParseError):
        parse_relation_matrix("2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_relation_matrix("2 1\n0 x\nx 0\n")
    with pytest.raises(ParseError):
        parse_relation_matrix("2 1\n0 1\n")


def test_intersection_tensor_round_trip():
    scheme = analyzed_scheme("cycle6")
    text = format_intersection_tensor(scheme.p, scheme.params.n)
    p2, n2 = parse_intersection_tensor(text)
    assert n2 == 6
    assert np.array_equal(p2, scheme.p)


def test_intersection_tensor_comments_and_blanks_ignored():
    text = "# K_3\n3 1\n\n0 0 0 1  # identity\n0 1 1 1\n1 0 1 1\n1 1 0 2#last\n1 1 1 1\n"
    p, n = parse_intersection_tensor(text)
    assert n == 3
    assert p.tolist() == [[[1, 0], [0, 1]], [[0, 1], [2, 1]]]


def test_intersection_tensor_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("6 2\n1 2 3\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_intersection_tensor("6 2\n0 0 5 1\n")
    with pytest.raises(ParseError):
        parse_intersection_tensor("# nothing\n")
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("10 2\n0 0 0 8\n0 0 0 1\n")
    assert err.value.line_no == 3
    # A value outside int64 names its line instead of overflowing.
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("3 1\n0 0 0 99999999999999999999\n")
    assert err.value.line_no == 2
    # The header is refused before the (d+1)^3 tensor is allocated: too few
    # entry lines for d + 1 degree lines, or fewer than one class.
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("3 100000\n0 0 0 1\n")
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("3 -4\n")
    assert err.value.line_no == 1
