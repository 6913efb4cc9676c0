"""Numerical kernel: clustering discipline, numerical rank, and the
entrywise polynomial calculus."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    catalog_graph,
    cluster_values_reference,
    eval_matrix_poly_reference,
    max_abs_diff,
    poly_from_roots,
)
from polyscheme.errors import DenseLimitError, ToleranceAmbiguityError
from polyscheme.numerics import (
    EigenClusters,
    check_dense_limit,
    cluster_values,
    eigen_clusters,
    eval_matrix_poly,
    eval_root_product,
    k_factors,
    lagrange_denominators,
    lookup_multiplicity,
    rank_tol,
    snap_to_int,
)


def test_snap_to_int():
    assert snap_to_int(2.0 + 3e-10) == 2.0
    assert snap_to_int(2.4) == 2.4
    assert snap_to_int(-1.0 - 1e-12) == -1.0


def test_cluster_values_groups_and_labels():
    raw = [1.0, 3.0, 1.0 + 5e-10, -2.0]
    values, counts, labels = cluster_values(raw, 1e-9)
    assert counts == [1, 2, 1]
    assert values[0] == 3.0 and values[2] == -2.0
    assert abs(values[1] - (1.0 + 2.5e-10)) < 1e-15
    assert list(labels) == [1, 0, 1, 2]


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
def test_cluster_values_refuses_a_tolerance_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        cluster_values([1.0, 2.0], tol)


def test_cluster_values_ambiguous_gap():
    # A gap inside (tol, 2*tol] could merge or split; refuse to guess.
    with pytest.raises(ToleranceAmbiguityError):
        cluster_values([0.0, 1.5e-9], 1e-9)
    values, counts, _ = cluster_values([0.0, 2.5e-9], 1e-9)
    assert counts == [1, 1] and values[0] > values[1]


def test_cluster_values_chain_drift():
    # Each step is within tol but the chain spreads past it.
    with pytest.raises(ToleranceAmbiguityError):
        cluster_values([0.0, 0.8e-9, 1.6e-9], 1e-9)


def test_cluster_values_degenerate_input():
    with pytest.raises(ValueError):
        cluster_values([], 1e-9)
    with pytest.raises(ValueError):
        cluster_values([1.0], 0.0)


TOLS = st.sampled_from([1e-9, 1e-6, 0.25])
NAN = float("nan")


@st.composite
def jittered_clusters(draw):
    """Cluster centres far apart, members within tol/2.5 of their centre."""
    tol = draw(TOLS)
    raw = []
    centre = draw(st.floats(-1e3, 1e3))
    for _ in range(draw(st.integers(1, 6))):
        centre -= tol * draw(st.floats(2.5, 50.0))
        jitter = st.floats(-tol / 2.5, tol / 2.5)
        raw += [centre + draw(jitter) for _ in range(draw(st.integers(1, 8)))]
    return raw, tol


@st.composite
def stepped_values(draw):
    """A walk whose steps are ties, steps of at most tol, gaps inside the
    ambiguous band (tol, 2*tol], or clear gaps; optionally with NaNs."""
    tol = draw(TOLS)
    raw = [draw(st.floats(-1e3, 1e3))]
    unit = st.floats(0.0, 1.0)
    for kind in draw(st.lists(st.sampled_from(["tie", "close", "band", "far"]), max_size=30)):
        step = {
            "tie": 0.0,
            "close": tol * draw(unit),
            "band": tol * (1.0 + draw(st.floats(0.0, 1.0, exclude_min=True))),
            "far": tol * (2.5 + 10 * draw(unit)),
        }[kind]
        raw.append(raw[-1] - step)
    raw += [NAN] * draw(st.integers(0, 2))
    return draw(st.permutations(raw)), tol


def tied_clusters(seed, jitter):
    """A few hundred values in random order: five clusters, each with 40
    exact ties and 20 values jittered by up to jitter, +0.0 beside -0.0 in
    the cluster at 0, and three NaNs."""
    rng = np.random.default_rng(seed)
    raw = []
    for centre in (3.0, 1.0, 0.0, -0.5, -2.0):
        raw += [centre] * 40 + (centre + rng.uniform(-jitter, jitter, 20)).tolist()
    raw += [-0.0] * 30 + [NAN] * 3
    return rng.permutation(raw).tolist()


def _clustering(fn, raw, tol):
    try:
        values, counts, labels = fn(raw, tol)
    except ToleranceAmbiguityError as err:
        return "raises", str(err)
    return [repr(v) for v in values], counts, labels.dtype, labels.tolist()


@settings(max_examples=300, deadline=None)
@given(st.one_of(jittered_clusters(), stepped_values()))
@example(([5.0], 1e-9))
@example(([2.0, -1.0, 2.0, 2.0, -1.0], 1e-9))
@example(([0.0, 1.5e-9], 1e-9))
@example(([0.0, 0.8e-9, 1.6e-9, 5.0, 5.0 + 0.7e-9, 5.0 + 1.4e-9, 5.0 + 2.1e-9], 1e-9))
@example(([1.0, NAN, 1.0 + 5e-10, NAN, -3.0], 1e-9))
@example((tied_clusters(1, 0.0), 1e-9))
@example((tied_clusters(2, 3e-10), 1e-9))
@example((tied_clusters(3, 3e-10), 1e-6))
def test_cluster_values_matches_reference(case):
    raw, tol = case
    assert _clustering(cluster_values, raw, tol) == _clustering(cluster_values_reference, raw, tol)


def test_eigen_clusters_validation():
    with pytest.raises(ValueError):
        EigenClusters((3.0, 1.0), (1,), 1e-9)
    with pytest.raises(ValueError):
        EigenClusters((), (), 1e-9)
    with pytest.raises(ValueError):
        EigenClusters((3.0, 1.0), (1, 0), 1e-9)
    with pytest.raises(ValueError):
        EigenClusters((1.0, 3.0), (1, 1), 1e-9)


def test_eigen_clusters_properties():
    spec = EigenClusters((3.0, 1.0, -2.0), (1, 5, 4), 1e-9)
    assert spec.n == 10
    assert spec.s == 2
    assert spec.multiplicity_of(1.0) == 5
    assert spec.multiplicity_of(0.5) == 0
    # The lookup reaches lookup_allowance(tolerance) = 10 tol.
    assert spec.multiplicity_of(1.0 + 9e-9) == 5
    assert spec.multiplicity_of(1.0 + 11e-9) == 0
    assert EigenClusters((3.0, 1.0, -2.0), (1, 5, 4), 0.005).multiplicity_of(0.99) == 5


def test_one_lookup_rule_for_dense_and_p_read_spectra():
    # A spectrum read off P lists one eigenvalue per eigenspace, so equal
    # ones are clustered and their multiplicities add up; a dense spectrum
    # is clustered already.  Both find the one cluster within 10 tol.
    assert lookup_multiplicity([1.0 + 4e-10, 5.0, 1.0 - 4e-10], [2, 1, 3], 1.0, 1e-9) == 5
    assert lookup_multiplicity([1.0 + 4e-10, 5.0, 1.0 - 4e-10], [2, 1, 3], 0.5, 1e-9) == 0
    assert EigenClusters((5.0, 1.0), (1, 5), 1e-9).multiplicity_of(1.0 + 9e-9) == 5
    # Two clusters within 10 tol of the value: the tolerance is refused,
    # whichever side the spectrum comes from.
    message = r"^2 eigenvalue clusters lie within 1e-08 of 1\.0; adjust the tolerance$"
    with pytest.raises(ToleranceAmbiguityError, match=message):
        lookup_multiplicity([1.0 + 4e-9, 5.0, 1.0 - 4e-9, 1.0 + 4e-9], [2, 1, 3, 5], 1.0, 1e-9)
    with pytest.raises(ToleranceAmbiguityError, match=message):
        EigenClusters((5.0, 1.0 + 4e-9, 1.0 - 4e-9), (1, 7, 3), 1e-9).multiplicity_of(1.0)


def test_eigen_clusters_cycle6_trig_oracle():
    # Circulant spectrum: 2*cos(2*pi*j/6) for j = 0..5.
    a = catalog_graph("cycle6").adjacency_matrix()
    spec = eigen_clusters(a)
    oracle = {}
    for j in range(6):
        v = round(2.0 * math.cos(2.0 * math.pi * j / 6.0), 9)
        oracle[v] = oracle.get(v, 0) + 1
    assert dict(zip(spec.values, spec.multiplicities)) == oracle


def test_eigen_clusters_snaps_petersen():
    a = catalog_graph("petersen").adjacency_matrix()
    spec = eigen_clusters(a)
    assert spec.values == (3.0, 1.0, -2.0)
    assert spec.multiplicities == (1, 5, 4)


def test_rank_tol():
    v = np.array([1.0, 2.0, -1.0])
    assert rank_tol(np.outer(v, v)) == 1
    assert rank_tol(np.zeros((3, 3))) == 0
    assert rank_tol(np.eye(4)) == 4


def test_check_dense_limit():
    check_dense_limit(10, 10)
    check_dense_limit(10 ** 9, None)
    with pytest.raises(DenseLimitError) as err:
        check_dense_limit(11, 10)
    assert err.value.n == 11 and err.value.limit == 10


def test_eval_matrix_poly_hadamard():
    rng = np.random.default_rng(0xFACE)
    a = rng.standard_normal((5, 5))
    m = a + a.T
    coeffs = [2.0, -1.0, 0.5]
    direct = 2.0 * np.ones((5, 5)) - m + 0.5 * m * m
    got = eval_matrix_poly(coeffs, m)
    assert max_abs_diff(got, direct) < 1e-12
    # Horner acts entrywise, so a symmetric input gives an exactly symmetric result.
    assert np.array_equal(got, got.T)
    # On an array of another shape it is the polynomial at each entry.
    v = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(eval_matrix_poly(coeffs, v), 2.0 - v + 0.5 * v * v)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_eval_matrix_poly_matches_the_allocating_horner(coeffs, seed):
    # Bit for bit, signed zeros, infinities and NaNs included.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 7)) * 10.0 ** rng.integers(-3, 4)
    m.ravel()[rng.permutation(42)[:5]] = [0.0, -0.0, np.inf, -np.inf, np.nan]
    with np.errstate(all="ignore"):
        got = eval_matrix_poly(coeffs, m)
        want = eval_matrix_poly_reference(coeffs, m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_eval_root_product_is_the_scaled_product():
    m = np.array([[0.5, 2.0], [-1.0, 3.25]])
    roots, scale = [0.5, -1.5, 4.0], 3.0
    want = np.full((2, 2), scale)
    for r in roots:
        want = want * (m - r)
    assert np.array_equal(eval_root_product(roots, scale, m), want)
    out, scratch = np.empty((2, 2)), np.empty((2, 2))
    assert eval_root_product(roots, scale, m, out=out, scratch=scratch) is out
    assert np.array_equal(out, want)
    assert np.array_equal(eval_root_product([], 2.0, np.arange(3.0)), [2.0, 2.0, 2.0])


def test_eval_matrix_poly_rejects():
    with pytest.raises(ValueError):
        eval_matrix_poly([], np.eye(2))


@pytest.mark.parametrize("n", [1401, 2201, 4001])
def test_lagrange_denominators_on_an_odd_cycle_spectrum(n):
    # C_n has the distinct eigenvalues 2 cos(2 pi t / n), t = 0..d with
    # d = (n - 1)/2, and the cosine sequence (Brouwer-Cohen-Neumaier 1989)
    # gives L_0 = n and L_i = n / (2 cos(2 pi i d / n)), so that
    # K_i = -2 cos(2 pi i d / n).  At each of these n, a left-to-right
    # product of the d ratios that make K_i leaves the float range.
    d = (n - 1) // 2
    values = [2 * math.cos(2 * math.pi * t / n) for t in range(d + 1)]
    sign, log = lagrange = lagrange_denominators(values)
    cosines = np.array([2 * math.cos(2 * math.pi * i * d / n) for i in range(1, d + 1)])
    assert np.allclose(sign * np.exp(log), [n, *(n / cosines)], rtol=1e-8, atol=0)
    assert np.allclose(k_factors(lagrange), -cosines, rtol=0, atol=1e-9)


def k_factors_reference(values):
    """The per-index loop, left to right: for i = 1..s, the product over
    j != i, 1 <= j <= s, of (v_0 - v_j) / (v_i - v_j)."""
    s = len(values) - 1
    out = []
    for i in range(1, s + 1):
        k = 1.0
        for j in range(1, s + 1):
            if j != i:
                k *= (values[0] - values[j]) / (values[i] - values[j])
        out.append(k)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-800, 800), min_size=2, max_size=10, unique=True))
def test_k_factors_match_the_per_index_loop(points):
    # Few values in any order, so the plain products stay in the float
    # range and serve as the reference; the log form differs in rounding only.
    values = [p / 16 for p in points]
    sign, log = lagrange = lagrange_denominators(values)
    exact = [math.prod(x - y for j, y in enumerate(values) if j != i) for i, x in enumerate(values)]
    assert list(sign * np.exp(log)) == pytest.approx(exact, rel=1e-12)
    assert k_factors(lagrange) == pytest.approx(k_factors_reference(values), rel=1e-12)


def test_poly_from_roots():
    assert poly_from_roots([1.0, 2.0], 3.0) == [6.0, -9.0, 3.0]
    assert poly_from_roots([], 2.0) == [2.0]
    # Every root annihilates the expanded polynomial.
    coeffs = poly_from_roots([0.5, -1.5, 4.0])
    for r in (0.5, -1.5, 4.0):
        assert abs(sum(c * r ** i for i, c in enumerate(coeffs))) < 1e-12
