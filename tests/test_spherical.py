"""Tests for spherical few-distance sets and the forced-eigenvalue check."""

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SCHEME_SPECS,
    analyzed_scheme,
    corrupt_eigenspace,
    dense_sphere,
    fail_after_header,
    same_evidence,
    schur_diameter_reference,
)
from polyscheme import errors, spherical
from polyscheme.errors import (
    DenseLimitError,
    GramError,
    MethodsDisagreeError,
    ParseError,
    SchurDisconnectedError,
    ToleranceAmbiguityError,
    content_lines,
)
from polyscheme.generators import FamilySpec, build_scheme
from polyscheme.numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    cluster_values,
    eigen_clusters,
    eval_matrix_poly,
    eval_root_product,
    interpolation_allowance,
    k_factors,
    lagrange_denominators,
    rank_tol,
)
from polyscheme.polyprops import POLYNOMIAL, q_polynomial_ordering
from polyscheme.reports import HYPOTHESIS_NOT_MET, PASS
from polyscheme.schemes import eigenmatrices, idempotents, validate_scheme
from polyscheme.spherical import (
    SCHUR_SEEDS,
    absolute_bound,
    format_gram_matrix,
    from_gram,
    from_idempotent,
    parse_gram_matrix,
    schur_diameter,
    schur_floor,
    verify_sphere_theorem,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def regular_polygon(n):
    """Unit vectors at the vertices of a regular n-gon."""
    angles = 2 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


def gram_of(points):
    """The exactly symmetric Gram matrix of the rows of points."""
    g = points @ points.T
    return (g + g.T) / 2


PENTAGON = gram_of(regular_polygon(5))
SQUARE = gram_of(regular_polygon(4))


def johnson_sphere(v, k, seed):
    """Gram matrix of the k-subsets of a v-set, each mapped to the sum of
    its unit vectors minus the centroid and normalized, in a random order."""
    subsets = np.array(list(itertools.combinations(range(v), k)))
    subsets = subsets[np.random.default_rng(seed).permutation(len(subsets))]
    vecs = np.full((len(subsets), v), -k / v)
    np.put_along_axis(vecs, subsets, 1.0 - k / v, axis=1)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return gram_of(vecs)


def labels_reference(gram, tol):
    """The int64 labels of both triangles: all n(n - 1) off-diagonal
    entries clustered at once."""
    n = len(gram)
    off = ~np.eye(n, dtype=bool)
    labels = np.zeros((n, n), dtype=int)
    labels[off] = cluster_values(gram[off], tol)[2] + 1
    return labels


def assert_small_labels(sph, reference):
    """sph.labels are symmetric, in the smallest unsigned dtype that holds
    s, and give the same class masks as the int64 reference."""
    assert sph.labels.dtype == np.min_scalar_type(sph.s) and sph.labels.dtype.kind == "u"
    assert np.array_equal(sph.labels, sph.labels.T)
    for i in range(sph.s + 1):
        assert np.array_equal(sph.labels == i, reference == i)


class TestAbsoluteBound:
    @pytest.mark.parametrize(
        "m, d, expected",
        [(2, 1, 3), (5, 1, 6), (3, 2, 9), (6, 2, 27), (9, 2, 54), (7, 0, 1), (1, 1, 2)],
    )
    def test_frozen_values(self, m, d, expected):
        assert absolute_bound(m, d) == expected

    def test_binomial_identity(self):
        # C(m+d-1,d) + C(m+d-2,d-1) telescopes to C(m+d,d) - C(m+d-2,d-2)
        for m in range(1, 12):
            for d in range(2, 8):
                direct = math.comb(m + d, d) - math.comb(m + d - 2, d - 2)
                assert absolute_bound(m, d) == direct
            assert absolute_bound(m, 1) == m + 1
            assert absolute_bound(m, 0) == 1

    @pytest.mark.parametrize("m, d", [(0, 1), (-2, 2), (3, -1)])
    def test_rejects_bad_arguments(self, m, d):
        with pytest.raises(ValueError):
            absolute_bound(m, d)


class TestFromGram:
    def test_orthonormal_basis(self):
        sph = from_gram(np.eye(4))
        assert sph.n == 4
        assert sph.s == 1
        assert sph.dimension == 4
        assert sph.values == (1.0, 0.0)

    def test_pentagon(self):
        sph = from_gram(PENTAGON)
        assert sph.n == 5
        assert sph.dimension == 2
        assert sph.s == 2
        assert np.allclose(
            sph.values, (1.0, math.cos(2 * math.pi / 5), math.cos(4 * math.pi / 5))
        )
        # neighbours at 72 degrees are class 1, the diagonals class 2
        assert list(sph.labels[0]) == [0, 1, 2, 2, 1]

    def test_distance_class_matrix(self):
        sph = from_gram(PENTAGON)
        a1 = sph.distance_class(1)
        assert np.array_equal(a1, a1.T)
        assert a1.sum() == 10
        assert np.array_equal(a1 @ np.ones(5), np.full(5, 2.0))

    def test_bad_diagonal(self):
        with pytest.raises(GramError, match="diagonal deviates from 1"):
            from_gram(np.diag([1.0, 2.0]))

    def test_not_psd(self):
        g = np.array([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(GramError, match="not positive semidefinite"):
            from_gram(g)

    def test_repeated_points(self):
        with pytest.raises(GramError, match="repeated points"):
            from_gram(np.ones((3, 3)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            from_gram([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="at least one row"):
            from_gram(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="must be finite"):
            from_gram([[0.0, np.inf], [np.inf, 0.0]])

    def test_shape_checks_come_before_the_limit(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            from_gram(np.ones((3, 2)), max_dense=2)
        with pytest.raises(DenseLimitError):
            from_gram([[0.0, np.inf], [np.inf, 0.0]], max_dense=1)

    def test_symmetrizes_snaps_and_freezes(self):
        src = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-10]])
        sph = from_gram(src)
        assert sph.gram[0, 1] == 0.5 and sph.gram[1, 0] == 0.5
        assert sph.gram[1, 1] == 1.0
        assert src[0, 1] == 1.0 and src[1, 1] == 1.0 + 1e-10
        with pytest.raises(ValueError):
            sph.gram[0, 0] = 5.0
        assert from_gram(np.eye(3)).n == 3

    @pytest.mark.parametrize("v, k", [(20, 2), (28, 2), (12, 3), (14, 3)])
    def test_labels_of_the_upper_triangle_mirror_both(self, v, k):
        # The sphere workload's Johnson Grams.
        sph = from_gram(johnson_sphere(v, k, seed=v))
        assert sph.s == k
        assert_small_labels(sph, labels_reference(sph.gram, sph.tolerance))

    def test_single_point_labels(self):
        sph = from_gram(np.eye(1))
        assert sph.labels.dtype == np.uint8 and sph.labels.tolist() == [[0]]

    def test_spread_message_counts_the_upper_triangle(self):
        # Inner products 0, 0.008 and 0.016 chain within tol 0.01 but spread
        # past it; each pair of points is counted once.
        g = np.array([[1.0, 0.0, 0.008], [0.0, 1.0, 0.016], [0.008, 0.016, 1.0]])
        with pytest.raises(ToleranceAmbiguityError, match=r"^cluster of 3 values spreads over"):
            from_gram(g, tol=0.01)


    def test_johnson_28_2_at_scale(self):
        gram = johnson_sphere(28, 2, seed=5)
        sph = from_gram(gram)
        assert sph.n == 378 and sph.dimension == 27
        assert np.allclose(sph.values, (1.0, 6 / 13, -1 / 13), rtol=0, atol=1e-12)
        counts = [int(np.count_nonzero(sph.labels == i)) for i in (1, 2)]
        assert counts == [378 * 52, 378 * 325]
        assert schur_diameter(sph) == 2


class TestFromIdempotent:
    def test_petersen_embedding(self):
        scheme = analyzed_scheme("petersen")
        sph = from_idempotent(scheme.params, None, 1)
        assert sph.n == 10
        assert sph.dimension == 5
        assert np.allclose(sph.values, (1.0, 1 / 3, -1 / 3))
        # inner products are Q[i, 1] / m_1, so classes line up with the scheme
        assert np.array_equal(dense_sphere(scheme.rel, sph).labels, scheme.rel.labels)

    def test_values_follow_second_eigenmatrix(self, scheme_case):
        params = scheme_case.params
        for j in range(1, params.d + 1):
            col = params.Q[:, j] / params.multiplicities[j]
            try:
                sph = from_idempotent(params, None, j)
            except GramError:
                # collapsed embeddings (repeated rows of E_j) are rejected
                assert len(set(np.round(col, 9))) < params.d + 1
                continue
            assert np.allclose(sorted(sph.values, reverse=True), sorted(col, reverse=True))

    def test_read_from_the_algebra(self, scheme_case):
        # Values from Q's column, dimension m_j, n from the multiplicities,
        # and no n x n array held; the Gram that the class values stand
        # for, gathered from Q's column, is the eigensolve's
        # (n/m_j) U_j U_j^T to rounding.
        rel, params = scheme_case.rel, scheme_case.params
        for j in range(1, params.d + 1):
            try:
                sph = from_idempotent(params, None, j)
            except GramError:
                continue
            mj = params.multiplicities[j]
            assert sph.dimension == mj and sph.n == params.n
            assert sph.gram is None and sph.labels is None
            assert np.array_equal(sph.algebra.class_values, params.Q[:, j] / mj)
            gram = dense_sphere(rel, sph).gram
            u = scheme_case.blocks[j]
            assert np.max(np.abs(gram - params.n / mj * (u @ u.T))) <= 1e-12

    def test_block_that_disagrees_with_q_is_an_error(self, monkeypatch):
        # The eigensolve's vectors of eigenspace j, moved by 1e-6 at one
        # entry, are refused by the check of that block against Q.
        scheme = analyzed_scheme("petersen")

        def nudge(u):
            u[3, 0] += 1e-6
            return u

        for j in (1, 2):
            with monkeypatch.context() as patch:
                corrupt_eigenspace(patch, scheme, j, nudge)
                with pytest.raises(MethodsDisagreeError,
                                   match=f"^the Gram of eigenspace {j} formed from its eigenvector"):
                    idempotents(scheme.rel, scheme.params)

    def test_labels_are_small_and_match_the_gram_clustering(self, scheme_case):
        rel, params = scheme_case.rel, scheme_case.params
        for j in range(1, params.d + 1):
            try:
                sph = from_idempotent(params, None, j)
            except GramError:
                continue
            dense = dense_sphere(rel, sph)
            reference = labels_reference(dense.gram, sph.tolerance)
            assert_small_labels(dense, reference)
            assert_small_labels(from_gram(dense.gram), reference)

    @pytest.mark.parametrize("j", [0, 4])
    def test_rejects_out_of_range_eigenspace(self, j):
        scheme = analyzed_scheme("petersen")
        with pytest.raises(ValueError, match="outside 1..2"):
            from_idempotent(scheme.params, None, j)


def k_stars(values):
    return k_factors(lagrange_denominators(values))


class TestKStar:
    """K*_i of the sphere theorem is numerics.k_factors over the set's values."""

    def test_pentagon_golden_ratio(self):
        assert k_stars(from_gram(PENTAGON).values) == pytest.approx([GOLDEN, 1 - GOLDEN], abs=1e-12)

    def test_petersen_embedding(self):
        scheme = analyzed_scheme("petersen")
        values = from_idempotent(scheme.params, None, 1).values
        assert k_stars(values) == pytest.approx([2.0, -1.0], abs=1e-9)

    def test_square(self):
        assert k_stars(from_gram(SQUARE).values) == pytest.approx([2.0, -1.0], abs=1e-12)

    def test_single_class_is_empty_product(self):
        assert k_stars((1.0, -1 / 3)) == [1.0]


class TestSchurDiameter:
    def test_orthonormal_basis(self):
        assert schur_diameter(from_gram(np.eye(5))) == 1

    def test_pentagon(self):
        assert schur_diameter(from_gram(PENTAGON)) == 2

    def test_petersen_embedding(self):
        scheme = analyzed_scheme("petersen")
        sph = from_idempotent(scheme.params, None, 1)
        assert schur_diameter(sph) == 2

    def test_tolerance_above_every_trial_disconnected(self):
        # With every eigenvalue below tol no trial reaches full rank, and
        # the search stops at the square's distance count 2.
        with pytest.raises(SchurDisconnectedError, match="up to degree 2") as info:
            schur_diameter(dataclasses.replace(from_gram(SQUARE), tolerance=100.0))
        assert info.value.max_degree == 2
        # The floor N(2, 2) = 5 >= 4 skips degrees 0 and 1; at dimension 0
        # there is no floor, and the search still stops at degree 2.
        assert schur_floor(from_gram(SQUARE)) == 2
        sph = dataclasses.replace(from_gram(SQUARE), dimension=0)
        assert schur_floor(sph) == 0
        with pytest.raises(SchurDisconnectedError, match="up to degree 2") as info:
            schur_diameter(dataclasses.replace(sph, tolerance=100.0))
        assert info.value.max_degree == 2

    def test_floor_skips_degrees_without_an_eigensolve(self, monkeypatch):
        # J(28,2) on the sphere of R^27: N(27, 1) = 28 < 378 <= N(27, 2),
        # so degrees 0 and 1 are never tried.
        sph = from_gram(johnson_sphere(28, 2, seed=3))
        assert schur_floor(sph) == 2
        tried = []
        monkeypatch.setattr(spherical, "eval_matrix_poly",
                            lambda c, m: tried.append(len(c) - 1) or eval_matrix_poly(c, m))
        assert schur_diameter(sph) == 2
        assert tried == [2]

    def test_floor_stops_at_s(self):
        # A rank below the true dimension (here a dimension that no degree
        # up to s can serve) still lets the search reach s.
        sph = dataclasses.replace(from_gram(PENTAGON), dimension=1)
        assert schur_floor(sph) == sph.s == 2
        assert schur_diameter(sph) == 2


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_algebra_schur_diameter_matches_dense_search(name):
    """On every eigenspace sphere of the catalog, the search that reads
    its ranks off P finds the Schur-diameter of the dense search from
    degree 0, and so does the same Gram admitted as a standalone one."""
    scheme = analyzed_scheme(name)
    compared = 0
    for j in range(1, scheme.params.d + 1):
        try:
            sph = from_idempotent(scheme.params, None, j)
        except GramError:
            continue
        gathered = dense_sphere(scheme.rel, sph)
        dense = schur_diameter_reference(gathered)
        assert schur_diameter(sph) == dense
        assert schur_diameter(from_gram(gathered.gram)) == dense
        assert schur_floor(sph) <= dense
        compared += 1
    assert compared >= 1


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_algebra_rank_matches_dense_rank(name):
    """The rank of every trial polynomial, read off P with the
    multiplicities as weights, equals the rank of its dense matrix."""
    scheme = analyzed_scheme(name)
    rng = np.random.default_rng(11)
    for j in range(1, scheme.params.d + 1):
        try:
            sph = from_idempotent(scheme.params, None, j)
        except GramError:
            continue
        gram = dense_sphere(scheme.rel, sph).gram
        for t in range(sph.s + 1):
            coeffs = rng.standard_normal(t + 1)
            values = eval_matrix_poly(coeffs, sph.algebra.class_values)
            assert sph.algebra.rank(values, 1e-9) == rank_tol(eval_matrix_poly(coeffs, gram))


@functools.cache
def cycle_101():
    """The distance scheme of C_101 and its parameters."""
    rel = build_scheme(FamilySpec("cycle", (101,)))
    return rel, eigenmatrices(validate_scheme(rel), rel.n)


@functools.cache
def cycle_101_spheres():
    """The 50 eigenspace spheres of the distance scheme of C_101: the
    regular 101-gon, and its images, in the plane."""
    params = cycle_101()[1]
    return [from_idempotent(params, None, j) for j in range(1, params.d + 1)]


def test_scheme_sphere_allocates_no_n_by_n_array():
    # C_101 eigenspace 1: not even a uint8 n x n array is allocated.
    params = cycle_101()[1]
    tracemalloc.start()
    try:
        sph = from_idempotent(params, None, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sph.n == 101 and sph.gram is None and sph.labels is None
    assert peak < sph.n ** 2


def test_normalized_annihilator_reaches_full_rank_at_degree_50():
    # prod (x - v) over the 50 values is only about 1e-13 at x = 1, below
    # the rank tolerance; divided by prod (1 - v) it is the identity.
    sph = cycle_101_spheres()[0]
    assert sph.s == 50
    roots = sph.values[1:]
    scale = 1.0 / math.prod(1.0 - v for v in roots)
    values = eval_root_product(roots, scale, sph.algebra.class_values)
    assert sph.algebra.rank(values, sph.tolerance) == 101
    gram = dense_sphere(cycle_101()[0], sph).gram
    assert np.max(np.abs(eval_root_product(roots, scale, gram) - np.eye(101))) < 1e-6
    assert schur_diameter(sph) == 50


def interpolation_residual_reference(sph, i):
    """The product form of f*_i evaluated on all n^2 entries of the Gram
    of sph, a dense_sphere, with K*_i I and A_i subtracted, as on a
    standalone Gram."""
    sign, log = lagrange = lagrange_denominators(sph.values)
    ki = k_factors(lagrange)[i - 1]
    scale = (sph.values[i] - 1.0) / (sign[i] * math.exp(log[i]))
    roots = [v for j, v in enumerate(sph.values[1:], 1) if j != i]
    f = eval_root_product(roots, scale, sph.gram)
    f[np.diag_indices(sph.n)] -= ki
    f -= sph.distance_class(i)
    return float(np.max(np.abs(f)))


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_scheme_interpolation_residual_is_the_n2_evaluation(name):
    """A scheme sphere's Gram is the gather of its class values, so the
    residual read at those values is, float for float, the one of all n^2
    entries, with a certified table and without."""
    scheme = analyzed_scheme(name)
    compared = 0
    for table in {id(t): t for t in (None, scheme.table)}.values():
        for j in range(1, scheme.params.d + 1):
            try:
                sph = from_idempotent(scheme.params, table, j)
            except GramError:
                continue
            for route in ("size", "schur"):
                for check in verify_sphere_theorem(sph, route=route).evidence.get("checks", []):
                    assert check["interp_residual"] == interpolation_residual_reference(
                        dense_sphere(scheme.rel, sph), check["class"])
                    compared += 1
    assert compared >= 1


def test_product_form_degree_49_identities_hold_on_cycle_101():
    worst = 0.0
    for sph in cycle_101_spheres():
        rep = verify_sphere_theorem(sph)
        assert rep.status == PASS
        checks = rep.evidence["checks"]
        assert len(checks) == 50
        worst = max(worst, *(c["interp_residual"] for c in checks))
    assert worst <= interpolation_allowance(DEFAULT_TOL)


def test_schur_trials_stop_at_the_first_certificate(monkeypatch):
    # H(3,3) eigenspace 1 has floor 2 and Schur-diameter s = 3: every
    # degree-2 trial is drawn, and the first degree-3 one has full rank by
    # P, so no later seed is drawn and the annihilator's denominators are never formed.
    scheme = analyzed_scheme("hamming33")
    sph = from_idempotent(scheme.params, None, 1)
    draws, rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or rng(seed))
    denominators = []
    monkeypatch.setattr(spherical, "lagrange_denominators", denominators.append)
    assert schur_diameter(sph) == sph.s == 3
    assert draws == [[seed, 2] for seed in SCHUR_SEEDS] + [[SCHUR_SEEDS[0], 3]]
    assert denominators == []


class TestVerifySphereTheorem:
    def test_pentagon_passes(self):
        report = verify_sphere_theorem(from_gram(PENTAGON))
        assert report.status == PASS
        assert report.theorem == "sphere-eigenvalue"
        assert report.subject == "sphere(n=5, m=2, s=2)"
        assert report.evidence["absolute_bound"] == 3
        checks = report.evidence["checks"]
        assert [c["class"] for c in checks] == [1, 2]
        first = checks[0]
        assert first["k_star"] == pytest.approx(GOLDEN, abs=1e-12)
        assert first["eigenvalue"] == pytest.approx(-GOLDEN, abs=1e-12)
        assert first["multiplicity"] == 2
        assert first["floor"] == 2
        assert first["interp_residual"] <= 1e-7
        assert checks[1]["eigenvalue"] == pytest.approx(GOLDEN - 1, abs=1e-12)

    def test_pentagon_schur_route(self):
        report = verify_sphere_theorem(from_gram(PENTAGON), route="schur")
        assert report.status == PASS
        assert report.evidence["schur_diameter"] == 2

    def test_petersen_embedding_passes(self):
        scheme = analyzed_scheme("petersen")
        sph = from_idempotent(scheme.params, None, 1)
        report = verify_sphere_theorem(sph)
        assert report.status == PASS
        # n = 10 against N(5, 1) = 6 leaves a floor of 4, attained exactly
        assert report.evidence["absolute_bound"] == 6
        for check in report.evidence["checks"]:
            assert check["floor"] == 4
            assert check["multiplicity"] == 4
            assert check["interp_residual"] <= 1e-7
        values = [c["eigenvalue"] for c in report.evidence["checks"]]
        assert values == pytest.approx([-2.0, 1.0], abs=1e-9)

    def test_simplex_passes(self):
        scheme = analyzed_scheme("complete4")
        sph = from_idempotent(scheme.params, None, 1)
        report = verify_sphere_theorem(sph)
        assert report.status == PASS
        check = report.evidence["checks"][0]
        assert check["k_star"] == pytest.approx(1.0, abs=1e-9)
        assert check["multiplicity"] == 3
        assert check["floor"] == 3

    def test_square_passes(self):
        report = verify_sphere_theorem(from_gram(SQUARE))
        assert report.status == PASS
        mults = [c["multiplicity"] for c in report.evidence["checks"]]
        floors = [c["floor"] for c in report.evidence["checks"]]
        assert mults == [1, 2]
        assert floors == [1, 1]

    def test_declared_distance_count_weakens_bound(self):
        report = verify_sphere_theorem(from_gram(PENTAGON), declared_d=3)
        assert report.status == HYPOTHESIS_NOT_MET
        assert report.evidence["summary"] == "n = 5 <= N(2, 2) = 5; size hypothesis not met"

    def test_schur_route_mismatch(self):
        scheme = analyzed_scheme("hamming33")
        sph = from_idempotent(scheme.params, None, 2)
        report = verify_sphere_theorem(sph, route="schur")
        assert report.status == HYPOTHESIS_NOT_MET
        assert report.evidence["summary"] == "Schur-diameter 2 != distance count 3"

    def test_class_spectra_read_off_p_match_dense(self, scheme_case):
        # Every class of every eigenspace sphere: the multiplicity of -K*_i
        # read off P equals its dense spectrum's.
        rel, params = scheme_case.rel, scheme_case.params
        for j in range(1, params.d + 1):
            try:
                sph = from_idempotent(params, None, j)
            except GramError:
                continue
            gathered = dense_sphere(rel, sph)
            for i, ki in enumerate(k_stars(sph.values), 1):
                dense = eigen_clusters(gathered.distance_class(i), max_dense=None)
                assert sph.algebra.class_multiplicity(i, -ki, sph.tolerance) == \
                    dense.multiplicity_of(-ki)

    @pytest.mark.parametrize("route", ["size", "schur"])
    def test_single_point_has_nothing_to_force(self, route):
        report = verify_sphere_theorem(from_gram(np.ones((1, 1))), route=route)
        assert report.status == HYPOTHESIS_NOT_MET
        assert "checks" not in report.evidence and "schur_diameter" not in report.evidence

    def test_rejects_unknown_route(self):
        with pytest.raises(ValueError, match="unknown route"):
            verify_sphere_theorem(from_gram(SQUARE), route="exact")

    def test_rejects_low_declared_count(self):
        with pytest.raises(ValueError, match="below the observed"):
            verify_sphere_theorem(from_gram(SQUARE), declared_d=1)

    @pytest.mark.parametrize("declared_d", [1, 2, 3])
    def test_schur_route_refuses_a_declared_count(self, declared_d):
        # The Schur route's hypothesis is the observed count; a declared one
        # would be ignored, so it is refused whether below, at or above s.
        with pytest.raises(ValueError, match="size route only"):
            verify_sphere_theorem(from_gram(PENTAGON), route="schur", declared_d=declared_d)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["1", "x y", " ", "#", "\n", "\r", "\r\n", "\v", "\x0c", "\x1c",
                                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]), max_size=12),
       st.integers(0, 4))
def test_content_lines_follow_splitlines(parts, block):
    # Blocks of a few characters put block ends between every kind of break.
    text = "".join(parts)
    expected = [(no, line.split("#", 1)[0].split())
                for no, line in enumerate(text.splitlines(), start=1)]
    saved, errors._BLOCK = errors._BLOCK, block
    try:
        got = list(content_lines(text))
    finally:
        errors._BLOCK = saved
    assert got == [(no, toks) for no, toks in expected if toks]


@pytest.mark.parametrize("name", sorted(SCHEME_SPECS))
def test_schur_diameter_matches_krein_route(name):
    """The entrywise-power diameter and the Krein detector must agree.

    For every eigenspace whose representative inner products are mutually
    distinct, the embedded point set has Schur-diameter d exactly when the
    Krein route certifies a polynomial ordering.
    """
    scheme = analyzed_scheme(name)
    params = scheme.params
    compared = 0
    for j in range(1, params.d + 1):
        col = params.Q[:, j]
        if np.min(np.diff(np.sort(col))) <= 1e-9:
            continue
        sph = from_idempotent(params, None, j)
        sd = schur_diameter(sph)
        verdict = q_polynomial_ordering(params, j)
        assert (sd == params.d) == (verdict.status == POLYNOMIAL)
        # handing the embedding over must not trip the cross-check either
        cross = q_polynomial_ordering(params, j, sphere=sph)
        assert cross.status == verdict.status
        compared += 1
    assert compared >= 1


def _embedding(name, j):
    scheme = analyzed_scheme(name)
    return dense_sphere(scheme.rel, from_idempotent(scheme.params, None, j)).gram


# Both routes pass on the pentagon and on J(8,3) eigenspace 1.  H(3,3)
# eigenspace 1 sits on the size bound, so only the Schur route passes, and
# eigenspace 2 has Schur-diameter 2 below its distance count 3.
INVARIANCE_GRAMS = {
    "pentagon": lambda: PENTAGON,
    "johnson83-e1": lambda: _embedding("johnson83", 1),
    "hamming33-e1": lambda: _embedding("hamming33", 1),
    "hamming33-e2": lambda: _embedding("hamming33", 2),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(INVARIANCE_GRAMS)), st.integers(0, 2**32 - 1))
def test_sphere_reports_ignore_labels_and_coordinates(name, seed):
    """Relabelling the points, or rotating them and recomputing the Gram
    matrix, leaves both routes' reports unchanged."""
    gram = INVARIANCE_GRAMS[name]()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(gram))
    w, v = np.linalg.eigh(gram)
    points = v[:, w > 1e-9] * np.sqrt(w[w > 1e-9])
    q, _ = np.linalg.qr(rng.standard_normal((points.shape[1], points.shape[1])))
    rotated = points @ q
    # The absolute-bound floor never passes the Schur-diameter.
    sph = from_gram(rotated @ rotated.T)
    assert schur_floor(sph) <= schur_diameter_reference(sph)
    for route in ("size", "schur"):
        base = verify_sphere_theorem(from_gram(gram), route=route)
        for other in (gram[np.ix_(perm, perm)], rotated @ rotated.T):
            got = verify_sphere_theorem(from_gram(other), route=route)
            assert (got.subject, got.status) == (base.subject, base.status)
            assert same_evidence(got.evidence, base.evidence)


class TestGramIO:
    def test_round_trip_exact(self):
        text = format_gram_matrix(PENTAGON)
        assert text.splitlines()[0] == "5"
        back = parse_gram_matrix(text)
        assert np.array_equal(back, PENTAGON)
        assert format_gram_matrix(back) == text

    def test_parsed_matrix_is_read_only_and_unsymmetrized(self):
        g = parse_gram_matrix("2\n1.0 0.5\n0.25 1.0\n")
        assert g[0, 1] == 0.5 and g[1, 0] == 0.25
        with pytest.raises(ValueError):
            g[0, 0] = 2.0
        assert from_gram(g).gram[1, 0] == 0.375

    @pytest.mark.parametrize("text, kwargs, n, limit", [
        ("6000\n", {}, 6000, DEFAULT_MAX_DENSE),
        ("4\n1 0 0 0\n0 1 zz 0\n0 0 1 0\n0 0 0 1\n", {"max_dense": 3}, 4, 3),
    ])
    def test_header_refused_before_any_row(self, monkeypatch, text, kwargs, n, limit):
        fail_after_header(monkeypatch)
        with pytest.raises(DenseLimitError) as info:
            parse_gram_matrix(text, **kwargs)
        assert (info.value.n, info.value.limit) == (n, limit)

    def test_bad_row_under_the_limit_and_lifted_limit(self):
        with pytest.raises(ParseError) as info:
            parse_gram_matrix("4\n1 0 0 0\n0 1 zz 0\n0 0 1 0\n0 0 0 1\n", max_dense=4)
        assert info.value.line_no == 3
        assert parse_gram_matrix("2\n1 0\n0 1\n", max_dense=None).shape == (2, 2)

    @pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c"])
    def test_line_numbers_follow_splitlines(self, sep):
        # A "\x0c" before "\n" is a break of its own, so line 5 is blank.
        text = sep.join(["# two points", "2", "", "1.0 0.0\x0c\n0.0 zz"]) + sep
        with pytest.raises(ParseError) as info:
            parse_gram_matrix(text)
        assert info.value.line_no == 6
        assert text.splitlines()[5] == "0.0 zz"

    def test_header_refusal_reads_no_copy_of_the_text(self):
        # A 1500-point Gram (9.0 MB of text) refused under a limit of 1000:
        # the line reader splits off the header's block alone.
        row = " ".join(["0.5"] * 1500)
        text = "1500\n" + "\n".join([row] * 1500) + "\n"
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError):
                parse_gram_matrix(text, max_dense=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 10

    def test_comments_and_blanks_ignored(self):
        text = "# two orthonormal points\n2\n\n1.0 0.0  # first row\n0.0 1.0\n"
        g = parse_gram_matrix(text)
        assert np.array_equal(g, np.eye(2))

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("", 0),
            ("x\n", 1),
            ("3\n1.0 0.0 0.0\n", 0),
            ("2\n1.0 0.0\n0.0 1.0 3.0\n", 3),
            ("2\n1.0 zz\nzz 1.0\n", 2),
            ("2\n1.0 0.0\n0.0 1.0\n0.5 0.5\n", 4),
            ("2\n1.0 0.0\n0.0 nan\n", 3),
            ("2\n1.0 inf\ninf 1.0\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(ParseError) as info:
            parse_gram_matrix(text)
        assert info.value.line_no == line_no
