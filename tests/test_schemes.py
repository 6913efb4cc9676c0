"""Association-scheme layer: axiom validation against a brute-force
counting oracle, idempotents against the graph-side projectors, and the
two eigenmatrix routes against each other."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    SCHEME_SPECS,
    analyzed_scheme,
    catalog_graph,
    corrupt_eigenspace,
    fail_after_header,
    idempotents_reference,
    krein_trace_reference,
    max_abs_diff,
    projectors,
    validate_scheme_axiom_4_reference,
)
from polyscheme.errors import (
    DegenerateElementError,
    DenseLimitError,
    GramError,
    MethodsDisagreeError,
    ParseError,
    SchemeAxiomError,
)
from polyscheme import numerics, schemes
from polyscheme.generators import FamilySpec, build_scheme, family_tensor
from polyscheme.graphs import distance_data, spectral_projectors
from polyscheme.numerics import DEFAULT_MAX_DENSE, DEFAULT_TOL
from polyscheme.schemes import (
    DEFAULT_SEEDS,
    RelationPartition,
    SchemeParameters,
    character_table,
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
from polyscheme.spherical import from_idempotent

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


@pytest.mark.parametrize("d", [3, 4, 10**12])
def test_axiom_two_first_gap_in_the_labels(d):
    # Classes 0, 1 and 3 are present: class 2 is the first empty one.
    lab = [[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]
    with pytest.raises(SchemeAxiomError, match="class 2 is empty") as err:
        validate_scheme(RelationPartition.from_matrix(lab, d=d))
    assert err.value.axiom == 2


@pytest.mark.parametrize("d", [5, 10**12, 2**63 - 1])
def test_axiom_two_label_beyond_the_point_pairs(d):
    # The label d exceeds n^2 = 4, so it is counted as a clipped one: class 1 is empty.
    lab = [[0, d], [d, 0]]
    with pytest.raises(SchemeAxiomError, match="class 1 is empty") as err:
        validate_scheme(RelationPartition.from_matrix(lab, d=d))
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


@pytest.mark.parametrize("lab, message", [
    # Class 2 first appears at (1, 2), in the second block of rows, and
    # the witness names that pair.
    ([[0, 1, 3, 1, 3, 3], [1, 0, 2, 2, 3, 1], [3, 2, 0, 2, 1, 1],
      [1, 2, 2, 0, 1, 2], [3, 3, 1, 1, 0, 2], [3, 1, 1, 2, 2, 0]],
     "axiom 4: not a scheme: p_{1,1}^{2} differs between pairs (1, 2) and (3, 5): 1 vs 0"),
    # Class 2 is the pair (5, 6) alone, past the blocks of rows 0, 1..2 and 3..4.
    ([[0 if x == y else 2 if {x, y} == {5, 6} else 1 for y in range(8)] for x in range(8)],
     "axiom 4: not a scheme: p_{1,1}^{0} differs between pairs (0, 0) and (5, 5): 7 vs 6"),
], ids=["row-1", "row-5"])
def test_axiom_four_with_a_class_missing_from_row_0(lab, message):
    rel = RelationPartition.from_matrix(lab)
    outcome = _axioms_outcome(validate_scheme, rel)
    assert outcome == _axioms_outcome(validate_scheme_axiom_4_reference, rel)
    assert outcome[0] == 4 and outcome[2] == message


def test_idempotents_match_graph_projectors():
    scheme = analyzed_scheme("petersen")
    family = spectral_projectors(catalog_graph("petersen"))
    assert len(scheme.blocks) == len(family.blocks) == 3
    for i, e in enumerate(projectors(scheme.blocks)):
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


# The first three seeds, and the last three, which a degenerate draw falls
# through to: both halves are checked against the reference.
@pytest.mark.parametrize("seeds", [DEFAULT_SEEDS[:3], DEFAULT_SEEDS[3:]], ids=["default", "alternate"])
@pytest.mark.parametrize("name", sorted([*ORACLE_SPECS, "cube-antipodal-first"]))
def test_idempotents_match_dense_reference(name, seeds, monkeypatch):
    rel = oracle_scheme(name)
    ref = idempotents_reference(rel, seeds=seeds)
    monkeypatch.setattr(schemes, "DEFAULT_SEEDS", seeds)
    params = eigenmatrices(validate_scheme(rel), rel.n)
    blocks = idempotents(rel, params)
    assert tuple(u.shape[1] for u in blocks) == params.multiplicities == tuple(ref.multiplicities)
    # Projector by projector, so the eigenspace order is compared too.
    assert len(blocks) == len(ref.projectors)
    for e, e_ref in zip(projectors(blocks), ref.projectors):
        assert float(np.max(np.abs(e - e_ref))) < 1e-9
    assert float(np.max(np.abs(params.P - ref.P))) < 1e-9
    assert float(np.max(np.abs(params.Q - ref.Q))) < 1e-9


def test_eigenspace_ties_go_to_the_smaller_multiplicity():
    rel = oracle_scheme("cube-antipodal-first")
    params = eigenmatrices(validate_scheme(rel), rel.n)
    assert float(np.max(np.abs(params.P[:, 1] - [1.0, 1.0, -1.0, -1.0]))) < 1e-9
    assert params.multiplicities == (1, 3, 1, 3)


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_freivalds_intersection_numbers_equal_the_int64_reference(name):
    rel = oracle_scheme(name)
    assert np.array_equal(validate_scheme(rel), validate_scheme_axiom_4_reference(rel))


SWAP_SCHEMES = ("cube", "cycle6", "hamming33", "johnson83", "petersen")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SWAP_SCHEMES), st.data())
def test_every_two_pair_label_swap_is_refused_as_the_reference_refuses(name, data):
    rel = oracle_scheme(name)
    lab = np.array(rel.labels)
    point = st.integers(0, rel.n - 1)
    x1, y1, x2, y2 = data.draw(st.tuples(point, point, point, point))
    assume(x1 != y1 and x2 != y2 and lab[x1, y1] != lab[x2, y2])
    a, b = lab[x1, y1], lab[x2, y2]
    lab[x1, y1] = lab[y1, x1] = b
    lab[x2, y2] = lab[y2, x2] = a
    swapped = RelationPartition.from_matrix(lab, d=rel.d)
    outcome = _axioms_outcome(validate_scheme, swapped)
    assert outcome == _axioms_outcome(validate_scheme_axiom_4_reference, swapped)
    assert outcome[0] == 4


def test_a_refutation_the_dense_product_does_not_confirm_is_an_error(monkeypatch):
    # One entry of the first class matrix, and so of the Freivalds check's
    # products, is off by one; the dense product of the true matrices agrees.
    rel = oracle_scheme("petersen")
    build = RelationPartition.adjacency
    built = []

    def corrupted(self, i):
        a = build(self, i)
        if not built:
            a[0, 1] += 1.0
        built.append(i)
        return a

    monkeypatch.setattr(RelationPartition, "adjacency", corrupted)
    with pytest.raises(MethodsDisagreeError, match="Freivalds check refutes .* dense product agrees"):
        validate_scheme(rel)


def test_validate_scheme_refuses_before_allocating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an n x n array was allocated above the dense limit")

    rel = build_scheme(FamilySpec("johnson", (6, 3)))
    monkeypatch.setattr(RelationPartition, "adjacency", fail)
    monkeypatch.setattr(np, "eye", fail)
    with pytest.raises(DenseLimitError):
        validate_scheme(rel, max_dense=5)


def test_idempotents_exhaust_seeds(monkeypatch):
    scheme = analyzed_scheme("cycle5")
    monkeypatch.setattr(schemes, "DEFAULT_SEEDS", ())
    with pytest.raises(DegenerateElementError):
        idempotents(scheme.rel, scheme.params)


def test_idempotents_refuse_swapped_multiplicities():
    # Petersen's eigenspaces 1 and 2 have multiplicities 5 and 4; the
    # generic element's clusters have the true sizes.
    scheme = analyzed_scheme("petersen")
    swapped = dataclasses.replace(scheme.params, multiplicities=(1, 4, 5))
    with pytest.raises(MethodsDisagreeError, match="multiplicities"):
        idempotents(scheme.rel, swapped)


@pytest.mark.parametrize("spec, j", [(spec, j) for spec, d in ((FamilySpec("cycle", (7,)), 3),
                                                                 (FamilySpec("paley", (13,)), 2))
                                     for j in range(1, d + 1)],
                         ids=lambda v: v.label() if isinstance(v, FamilySpec) else None)
def test_forged_p_entries_are_refused_by_the_block_residual(spec, j, monkeypatch):
    # Two entries of row j of an irrational P move by 1e-3 orthogonally to
    # the generic element's coefficients c, so that P c, and with it the
    # cluster check, is unchanged; Q is untouched, so the Gram check passes.
    # Class 1 then acts on eigenspace j other than P says.
    rel = build_scheme(spec)
    params = eigenmatrices(validate_scheme(rel), rel.n)
    draws, rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or rng(seed))
    idempotents(rel, params)
    assert draws[:2] == [DEFAULT_SEEDS[0], schemes.BLOCK_RESIDUAL_SEED]
    c = rng(DEFAULT_SEEDS[0]).uniform(1.0, 2.0, rel.d + 1)
    forged = params.P.copy()
    forged[j, 1] += 1e-3 * c[2]
    forged[j, 2] -= 1e-3 * c[1]
    assert np.max(np.abs(forged @ c - params.P @ c)) <= 1e-15
    assert 1e-3 > numerics.residual_allowance(DEFAULT_TOL, rel.n)
    with pytest.raises(MethodsDisagreeError,
                       match=rf"^class 1 does not act on the eigenvector block of eigenspace {j} "
                             rf"as P\[{j}, 1\]"):
        idempotents(rel, dataclasses.replace(params, P=forged))


INTEGRAL = ("complete4", "cube", "cycle6", "hamming33", "hoffman-singleton", "johnson83",
            "petersen")


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_character_table_is_exact_where_p_is_integral(name):
    scheme = analyzed_scheme(name)
    params = scheme.params
    table = character_table(params)
    assert (table is not None) == (name in INTEGRAL)
    if table is None:
        return
    assert table.dtype == np.int64
    assert max_abs_diff(table, params.P) < 1e-9


@pytest.mark.parametrize("spec", [FamilySpec("hamming", (12, 5)), FamilySpec("johnson", (24, 8))])
def test_character_table_is_exact_past_int64(spec):
    # n^2 times the lcm of the degrees is above 2^66 here, so P Q = n I is
    # summed in Python integers, and a multiplicity moved by one is refused.
    params = parametric_parameters(*family_tensor(spec))
    assert np.array_equal(character_table(params), np.rint(params.P))
    m = list(params.multiplicities)
    m[1], m[2] = m[1] + 1, m[2] - 1
    with pytest.raises(MethodsDisagreeError, match=r"^eigenspace 1: m_1 sum_i P\[1, i\]\^2 / k_i"):
        character_table(dataclasses.replace(params, multiplicities=tuple(m)))


def _valid_table(name):
    params = analyzed_scheme(name).params
    return params, np.rint(params.P)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INTEGRAL), st.data())
def test_character_table_refuses_a_moved_eigenvalue(name, data):
    params, P = _valid_table(name)
    j, i = (data.draw(st.integers(0, params.d)) for _ in range(2))
    P[j, i] += data.draw(st.sampled_from([-1, 1]))
    with pytest.raises(MethodsDisagreeError):
        character_table(dataclasses.replace(params, P=P))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INTEGRAL), st.data())
def test_character_table_refuses_a_moved_intersection_number(name, data):
    params, _ = _valid_table(name)
    i, j, k = (data.draw(st.integers(0, params.d)) for _ in range(3))
    p = params.p.copy()
    step = data.draw(st.sampled_from([-1, 1]))
    p[i, j, k] += step
    if i != j:
        p[j, i, k] += step
    with pytest.raises(MethodsDisagreeError):
        character_table(dataclasses.replace(params, p=p))


def test_character_table_refuses_a_wrong_multiplicity():
    # A P that is a character table, against multiplicities swapped by the
    # float route, breaks P Q = n I on its diagonal.
    params = analyzed_scheme("petersen").params
    swapped = dataclasses.replace(params, multiplicities=(1, 4, 5))
    with pytest.raises(MethodsDisagreeError, match=r"^eigenspace 1: m_1 sum_i P\[1, i\]\^2 / k_i"):
        character_table(swapped)


@pytest.mark.parametrize("j", [2, 3])
def test_corrupted_block_of_a_degenerate_embedding_is_refused(j, monkeypatch):
    # The cube's eigenspaces 2 and 3 embed it with repeated points, so no
    # sphere is built from them, but their blocks are still checked against
    # Q on every entry.  A zeroed row is no automorphism of the points.
    scheme = analyzed_scheme("cube")
    with pytest.raises(GramError):
        from_idempotent(scheme.params, None, j)

    def zero_row(u):
        u[0] = 0.0
        return u

    corrupt_eigenspace(monkeypatch, scheme, j, zero_row)
    with pytest.raises(MethodsDisagreeError, match=f"^the Gram of eigenspace {j} formed"):
        idempotents(scheme.rel, scheme.params)


def test_idempotent_family_properties(scheme_case):
    idems = projectors(scheme_case.blocks)
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
    rel, blocks, params = scheme_case.rel, scheme_case.blocks, scheme_case.params
    for i in range(params.d + 1):
        ai = rel.adjacency(i).astype(float)
        for j, e in enumerate(projectors(blocks)):
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


def test_idempotents_rejects_foreign_parameters():
    petersen = analyzed_scheme("petersen")
    # n = 5 against 10, then n = 10 with d = 5 against 2.
    with pytest.raises(ValueError, match="n = 5, d = 2"):
        idempotents(petersen.rel, analyzed_scheme("cycle5").params)
    cycle10 = build_scheme(FamilySpec("cycle", (10,)))
    with pytest.raises(ValueError, match="n = 10, d = 5"):
        idempotents(petersen.rel, eigenmatrices(validate_scheme(cycle10), 10))


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


def test_parametric_exhaust_seeds(monkeypatch):
    p = analyzed_scheme("cycle5").p
    monkeypatch.setattr(schemes, "DEFAULT_SEEDS", ())
    with pytest.raises(DegenerateElementError):
        parametric_parameters(p, 5)


def test_relation_matrix_round_trip():
    rel = analyzed_scheme("petersen").rel
    again = parse_relation_matrix(format_relation_matrix(rel))
    assert np.array_equal(again.labels, rel.labels)
    assert again.d == rel.d


def test_relation_matrix_comments_and_blanks_ignored():
    text = "# C_3\n3 1\n\n0 1 1  # row 0\n1 0 1\n1 1 0#last\n"
    assert parse_relation_matrix(text).labels.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize("text, kwargs, n, limit", [
    ("6000 2\n", {}, 6000, DEFAULT_MAX_DENSE),
    ("4 1\n0 1 1 1\n1 0 x 1\n1 1 0 1\n1 1 1 0\n", {"max_dense": 3}, 4, 3),
])
def test_relation_matrix_header_refused_before_any_row(monkeypatch, text, kwargs, n, limit):
    fail_after_header(monkeypatch)
    with pytest.raises(DenseLimitError) as info:
        parse_relation_matrix(text, **kwargs)
    assert (info.value.n, info.value.limit) == (n, limit)


def test_relation_matrix_bad_row_under_the_limit_and_lifted_limit():
    with pytest.raises(ParseError) as err:
        parse_relation_matrix("4 1\n0 1 1 1\n1 0 x 1\n1 1 0 1\n1 1 1 0\n", max_dense=4)
    assert err.value.line_no == 3
    assert parse_relation_matrix("2 1\n0 1\n1 0\n", max_dense=None).n == 2


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
    # The header is refused before the (d+1)^3 tensor is allocated: fewer
    # entry lines than the (d+1)^2 nonzero entries of any valid tensor, or
    # fewer than one class.
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("3 100000\n0 0 0 1\n")
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_intersection_tensor("3 -4\n")
    assert err.value.line_no == 1


def test_intersection_tensor_allocation_is_bounded_by_the_line_count():
    # 300 degree lines for 299 classes (3.4 KB) would allocate a 300^3
    # int64 tensor (216 MB); a valid one needs 300^2 entry lines.
    text = "300 299\n" + "".join(f"{i} {i} 0 1\n" for i in range(300))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_intersection_tensor(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("line 1: header declares 299 classes, which need at least "
                              "(d+1)^2 = 90000 entry lines, but 300 follow")
    assert peak < 1_000_000
