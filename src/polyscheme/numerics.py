"""Dense symmetric-matrix kernel: eigenvalue clustering, numerical rank,
the entrywise polynomial calculus used by the rest of the package, and the
tolerance policy.  The kernels take and return plain ndarrays and trust
their callers to pass symmetric ones; spherical.from_gram admits a
caller's matrix.

Tolerance policy.  One tolerance tol (default 1e-9, suited to matrices
whose entries are O(1)..O(1e3), which covers every catalog object) decides
every numeric comparison.  Each allowance is defined below, once; the other
modules call it and never scale tol by a literal.

  allowance                bounds                                        value
  tol                      cluster spread, integer snap, rank, unit      tol
                           diagonal, Krein link, separation of a
                           column's head, projector entries
  cluster_gap              the gap that splits two clusters, and the     2 tol
                           least gap between a generic element's
                           eigenvalues on the intersection matrices
                           and between its values P c on the scheme
  residual_allowance       a generic element's eigenvalue clusters on    100 tol max(1, n)
                           the n points against its values P c
  gram_allowance           an n x n Gram's least and zero eigenvalues,   max(tol, 100 n eps)
                           an eigenspace's Gram against Q's column,
                           and that column against the exact P[j, i]/k_i
  eigensolve_rounding      the tol below which a generic element's       eps max |w|
                           ambiguous spectrum w is refused, not redrawn
  scaled_allowance         a computed value x against an exact one:      tol max(1, |x|)
                           the imaginary parts of the intersection-
                           matrix eigenvalues, the product-formula match
  integrality_allowance    parametric integers and closed forms, fixed   1e-6 max(1, |x|)
                           whatever tol: an explicit scheme's P
                           rounded to its character table,
                           multiplicities, the degree
                           row, the off-diagonal of the diagonalized
                           intersection matrices, Q's row 0, the
                           closed-form column of P
  lookup_allowance         a forced eigenvalue looked up in a clustered  10 tol
                           spectrum, dense or read off P
  interpolation_allowance  the entrywise interpolation identity          100 tol
  order_quantum            the grid on which eigenspaces are sorted by   max(tol, 1e-12)
                           their class-1 eigenvalue
  krein_allowance          the rounding of a Krein number q_ij^k whose   1e4 eps scale
                           scale is (1/n) sum_u |P[k,u] Q[u,i] Q[u,j]|
  rank_allowance           the rounding of a dense eigenvalue of an      n eps max |lam|
                           n x n matrix whose spectrum lam is read
                           off P
  determinant_allowance    log|det| of a matrix against the sum of its   tol sum_k m_k / |lam_k|
                           eigenvalues' logs, read off P: every lam_k,
                           of multiplicity m_k, moved by tol

Intersection numbers are integers and are compared exactly.  A set
clustered at a tolerance is checked at that tolerance: EigenClusters and
SphericalSet carry theirs, and the checks that read them take no other.
A tol below what float arithmetic resolves is refused: the clustering
raises ToleranceAmbiguityError, and a generic element that no seed
separates raises DegenerateElementError; an ambiguous clustering at a tol
below eigensolve_rounding raises at the first draw, since each draw
rounds at about that scale and a redraw, one n x n eigensolve per seed,
seldom clusters.  A Gram's PSD test reads gram_allowance, so the rounding
of its eigensolve does not blame a good Gram.  A Krein number above tol
but within krein_allowance may be a rounded zero, and the Q detector
raises ToleranceAmbiguityError for it; so does the Schur search for a
full rank read off P whose least eigenvalue is above tol but within
tol + rank_allowance, which a dense eigensolve may put on either side of
tol, and lookup_multiplicity for a forced eigenvalue within
lookup_allowance of two clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DenseLimitError, ToleranceAmbiguityError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DENSE = 5000


def cluster_gap(tol: float) -> float:
    """Least gap that separates two clusters of spread tol."""
    return 2 * tol


def residual_allowance(tol: float, n: int) -> float:
    """Eigen residual allowed on products with n x n class matrices."""
    return 100 * tol * max(1.0, n)


def gram_allowance(tol: float, n: int) -> float:
    """Deviation allowed between an n-term sum and its exact value: tol,
    but never below the rounding error of the sum."""
    return max(tol, 100 * n * np.finfo(float).eps)


def eigensolve_rounding(values) -> float:
    """Rounding scale of a symmetric eigensolve: eps times its largest |eigenvalue|."""
    return np.finfo(float).eps * float(np.max(np.abs(values)))


def scaled_allowance(tol: float, magnitude: float) -> float:
    """Deviation allowed on a computed value of the given magnitude."""
    return tol * max(1.0, magnitude)


def integrality_allowance(magnitude):
    """Deviation of a parametric integer or closed form from its exact
    value, fixed whatever tol; elementwise on an array."""
    return 1e-6 * np.maximum(1.0, magnitude)


def lookup_allowance(tol: float) -> float:
    """Distance at which a forced eigenvalue finds its cluster."""
    return 10 * tol


def interpolation_allowance(tol: float) -> float:
    """Residual allowed on the entrywise interpolation identity."""
    return 100 * tol


def order_quantum(tol: float) -> float:
    """Grid on which eigenvalues are rounded to sort eigenspaces; its floor
    keeps the quotients finite."""
    return max(tol, 1e-12)


def krein_allowance(scale):
    """Rounding of a Krein number whose terms sum to scale in magnitude.
    On 28 Johnson and Hamming schemes up to n = 16807, the zero ones reach
    1714 eps scale (J(20,5)) and the nonzero ones are at least 5.8e13 eps
    scale."""
    return 1e4 * np.finfo(float).eps * scale


def rank_allowance(values, n: int) -> float:
    """Rounding of the eigenvalues of an n x n matrix whose spectrum is values."""
    return float(n * eigensolve_rounding(values))


def determinant_allowance(values, multiplicities, tol: float) -> float:
    """Deviation allowed between log|det| of a matrix and the sum of
    m_k log|values_k| over its distinct eigenvalues values_k, each of
    multiplicity m_k: the first-order change of that sum when every
    eigenvalue moves by tol, the resolution at which a rank is read."""
    return tol * float(np.sum(np.asarray(multiplicities) / np.abs(values)))


def check_dense_limit(n: int, max_dense: int | None = DEFAULT_MAX_DENSE) -> None:
    """Refuse dense O(n^3) work above the cap; pass max_dense=None to lift it."""
    if max_dense is not None and n > max_dense:
        raise DenseLimitError(n, max_dense)


def snap_to_int(x: float, tol: float = DEFAULT_TOL) -> float:
    """Round to the nearest integer when within tol, else leave unchanged."""
    r = round(x)
    return float(r) if abs(x - r) <= tol else float(x)


def cluster_values(raw, tol: float = DEFAULT_TOL):
    """Group reals into clusters of spread <= tol separated by gaps > 2*tol.

    Returns (values, counts, labels): cluster means in decreasing order,
    member counts, and for each input value the index of its cluster.

    A gap between neighbours inside (tol, 2*tol] is ambiguous at this
    tolerance and raises ToleranceAmbiguityError, as does a chain of
    close values whose total spread exceeds tol.

    Cost: one sort plus O(n) array passes, and a Python step per cluster,
    not per value.  The order among tied values does not change the sorted
    sequence, so the sort need not be stable; the NaNs, each its own
    cluster, are numbered in input order.
    """
    arr = np.asarray(raw, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot cluster an empty value list")
    if not 0 < tol < np.inf:
        raise ValueError("tolerance must be finite and positive")
    order = np.argsort(-arr)
    svals = arr[order]
    if np.isnan(svals[-1]):
        nans = np.count_nonzero(np.isnan(svals))
        order[-nans:] = np.sort(order[-nans:])
    gaps = svals[:-1] - svals[1:]
    gap = cluster_gap(tol)
    ambiguous = np.flatnonzero((gaps > tol) & (gaps <= gap))
    if ambiguous.size:
        pos = ambiguous[0] + 1
        raise ToleranceAmbiguityError(
            f"values {float(svals[pos])!r} and {float(svals[pos - 1])!r} are separated by "
            f"{float(gaps[pos - 1])!r}, inside ({tol!r}, {gap!r}]; adjust the tolerance"
        )
    # A NaN gap compares false both ways, so it splits rather than joins.
    split = ~(gaps <= gap)
    starts = np.concatenate(([0], np.flatnonzero(split) + 1))
    ends = np.append(starts[1:], arr.size)
    spreads = svals[starts] - svals[ends - 1]
    wide = np.flatnonzero(spreads > tol)
    if wide.size:
        gi = wide[0]
        raise ToleranceAmbiguityError(
            f"cluster of {ends[gi] - starts[gi]} values spreads over {float(spreads[gi])!r} > "
            f"tol {tol!r}; adjust the tolerance"
        )
    values = [float(np.mean(svals[a:b])) for a, b in zip(starts, ends)]
    counts = [int(c) for c in ends - starts]
    del gaps, svals
    labels = np.empty(arr.size, dtype=int)
    labels[order] = np.concatenate(([0], np.cumsum(split)))
    return values, counts, labels


@dataclass(frozen=True)
class EigenClusters:
    """Distinct (clustered) eigenvalues in decreasing order with multiplicities.

    Representatives within tol of an integer are snapped to it; raw clusters
    are separated by gaps > 2*tolerance, which keeps the snapped values
    strictly decreasing.
    """

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    tolerance: float

    def __post_init__(self):
        if len(self.values) != len(self.multiplicities):
            raise ValueError("values and multiplicities must have equal length")
        if not self.values:
            raise ValueError("at least one eigenvalue cluster required")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be positive")
        for a, b in zip(self.values, self.values[1:]):
            if not a > b:
                raise ValueError("cluster values must be strictly decreasing")

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    @property
    def s(self) -> int:
        """Number of distinct eigenvalues minus one."""
        return len(self.values) - 1

    def multiplicity_of(self, value: float) -> int:
        """Multiplicity of value in this spectrum (see lookup_multiplicity)."""
        return lookup_multiplicity(self.values, self.multiplicities, value, self.tolerance)


def lookup_multiplicity(values, multiplicities, value: float, tol: float) -> int:
    """Multiplicity of value in the spectrum values, each of multiplicity
    multiplicities[k], clustered at tol: that of the one cluster within
    lookup_allowance(tol) of value, 0 if none.  Two or more is a
    ToleranceAmbiguityError."""
    means, _, labels = cluster_values(values, tol)
    window = lookup_allowance(tol)
    near = np.flatnonzero(np.abs(np.subtract(means, value)) <= window)
    if near.size > 1:
        raise ToleranceAmbiguityError(
            f"{near.size} eigenvalue clusters lie within {window!r} of {value!r}; "
            f"adjust the tolerance")
    return int(np.asarray(multiplicities)[labels == near[0]].sum()) if near.size else 0


def eigen_clusters(
    m,
    tol: float = DEFAULT_TOL,
    *,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> EigenClusters:
    """Clustered spectrum of a symmetric matrix, in decreasing order."""
    check_dense_limit(len(m), max_dense)
    return cluster_spectrum(np.linalg.eigvalsh(m), tol)[0]


def cluster_spectrum(w, tol: float = DEFAULT_TOL):
    """Clustered spectrum of the eigenvalues w, and for each of them the
    index of its cluster (see cluster_values)."""
    values, counts, labels = cluster_values(w, tol)
    values = [snap_to_int(v, tol) for v in values]
    return EigenClusters(tuple(values), tuple(counts), tol), labels


def lagrange_denominators(values) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|L_i| of every Lagrange denominator L_i = prod over
    j != i of (values[i] - values[j]), for a list of distinct values.  Each
    log is the math.fsum of its factors' logs, so no partial product can
    leave the float range, whatever the number of values."""
    diffs = np.subtract.outer(values, values) + np.eye(len(values))
    sign = np.where(np.count_nonzero(diffs < 0, axis=1) % 2, -1.0, 1.0)
    return sign, np.array([math.fsum(row.tolist()) for row in np.log(np.abs(diffs))])


def k_factors(denominators) -> list[float]:
    """K_i = -L_0/L_i, for i = 1..s, from the lagrange_denominators of s + 1
    distinct values v: the product over j != i, 1 <= j <= s, of
    (v_0 - v_j) / (v_i - v_j), which is 1 when s = 1."""
    sign, log = denominators
    return (-sign[0] * sign[1:] * np.exp(log[0] - log[1:])).tolist()


def rank_tol(m, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues of magnitude > tol."""
    return int(np.count_nonzero(np.abs(np.linalg.eigvalsh(m)) > tol))


def eval_matrix_poly(coeffs, m) -> np.ndarray:
    """Evaluate sum_t coeffs[t] * M^(t) by Horner's rule, in place in one
    buffer, where M^(t) is the entrywise power of an array of any shape
    (degree-0 term all ones).  Each step acts entrywise, so a symmetric M
    gives a symmetric result."""
    cs = [float(c) for c in coeffs]
    if not cs:
        raise ValueError("coefficient list must be nonempty")
    acc = np.zeros(np.shape(m))
    for c in reversed(cs):
        acc *= m
        acc += c
    return acc


def eval_root_product(roots, scale: float, m, out=None, scratch=None) -> np.ndarray:
    """Evaluate scale * prod_r (M - r) entrywise, for an array M of any
    shape, into out with one scratch array (each new when None).  The
    product keeps each factor's rounding, where the expanded coefficients
    of a high-degree polynomial cancel catastrophically."""
    out = np.empty(np.shape(m)) if out is None else out
    scratch = np.empty_like(out) if scratch is None else scratch
    out.fill(scale)
    for r in roots:
        np.subtract(m, r, out=scratch)
        out *= scratch
    return out
