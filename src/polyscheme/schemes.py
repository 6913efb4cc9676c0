"""Symmetric association schemes: axiom validation with witnesses, the
primitive idempotents of the adjacency algebra (certified exactly when the
first eigenmatrix is integral, from an eigensolve otherwise), eigenmatrices
and Krein parameters, and a parametric route that needs only the
intersection numbers.

Class 0 is always the identity relation.  Eigenmatrix convention: row j,
column i holds the value of class i on eigenspace j, so row 0 of the first
eigenmatrix lists the degrees and row 0 of the second the multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateElementError,
    MethodsDisagreeError,
    ParseError,
    SchemeAxiomError,
    ToleranceAmbiguityError,
    line_of,
    read_header,
    read_rows,
)
from .graphs import DistanceData
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    check_dense_limit,
    cluster_gap,
    cluster_values,
    eigensolve_rounding,
    gram_allowance,
    integrality_allowance,
    order_quantum,
    residual_allowance,
    scaled_allowance,
)

# Generic-element seeds, tried in turn until one draw is not degenerate.
DEFAULT_SEEDS = (20839, 61409, 92821, 15137, 48817, 76091)
# Axiom 4's Freivalds check: a fixed n x FREIVALDS_COLUMNS matrix of
# integers below 2^FREIVALDS_BITS, so a violation goes unseen with
# probability at most 2^-60 per (i, j) (Schwartz-Zippel).
FREIVALDS_SEED = 51787
FREIVALDS_BITS = 20
FREIVALDS_COLUMNS = 3
# The eigenvector blocks' check against P: one fixed standard normal vector.
BLOCK_RESIDUAL_SEED = 33119


@dataclass(frozen=True)
class RelationPartition:
    """Partition of X x X into classes 0..d, as an n x n label matrix.

    Construction checks only shape and label range; the scheme axioms
    themselves are checked by validate_scheme so that invalid partitions
    can be represented and rejected with witnesses.
    """

    labels: np.ndarray
    d: int

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @staticmethod
    def from_matrix(labels, d: int | None = None) -> "RelationPartition":
        arr = np.array(labels, dtype=int)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("label matrix must be square")
        n = arr.shape[0]
        if n < 2:
            raise ValueError("schemes need at least two points")
        if arr.min() < 0:
            raise ValueError("labels must be nonnegative")
        if d is None:
            d = int(arr.max())
        elif arr.max() > d:
            raise ValueError(f"label {arr.max()} exceeds declared class count {d}")
        if d < 1:
            raise ValueError("schemes need at least one class besides the identity")
        arr.setflags(write=False)
        return RelationPartition(arr, d)

    def adjacency(self, i: int, out=None) -> np.ndarray:
        """0/1 float indicator matrix of class i, written into out when
        given, else built afresh."""
        if not 0 <= i <= self.d:
            raise ValueError(f"class {i} outside 0..{self.d}")
        return np.equal(self.labels, i, out=np.empty(self.labels.shape) if out is None else out)


def from_distance_data(dd: DistanceData) -> RelationPartition:
    """Distance partition of a connected graph as a relation partition."""
    if not dd.is_connected():
        raise ValueError("distance partition of a disconnected graph is not a relation partition")
    return RelationPartition.from_matrix(np.array(dd.dist), d=dd.diameter)


def validate_scheme(rel: RelationPartition, max_dense: int | None = DEFAULT_MAX_DENSE) -> np.ndarray:
    """Check the defining axioms and return the intersection numbers
    p[i, j, k] as exact integers.

    Axioms checked: class 0 is the identity (1); every class is nonempty
    (2); the partition is symmetric (3); for each (i, j, k) the count of
    z with label(x, z) = i and label(z, y) = j is the same for every pair
    (x, y) in class k (4).  Violations raise SchemeAxiomError carrying the
    offending pairs.  Partitions above max_dense are refused before any of
    that work.

    p is counted at the first pair of each class, and axiom 4 is checked
    as A_i A_j = sum_k p_ij^k A_k on a fixed random integer matrix
    (Freivalds 1977), exactly in float64 for n <= 92681.  The first (i, j)
    that differs is multiplied out densely for its witnesses; a difference
    the dense product does not confirm is a MethodsDisagreeError.
    """
    check_dense_limit(rel.n, max_dense)
    lab = rel.labels
    n, d = rel.n, rel.d
    diag = np.diag(lab)
    bad = np.nonzero(diag != 0)[0]
    if bad.size:
        x = int(bad[0])
        raise SchemeAxiomError(1, f"diagonal pair ({x}, {x}) has label {int(diag[x])}, not 0",
                               [(x, x)])
    off_zero = np.argwhere((lab == 0) & ~np.eye(n, dtype=bool))
    if off_zero.size:
        x, y = (int(v) for v in off_zero[0])
        raise SchemeAxiomError(1, f"off-diagonal pair ({x}, {y}) lies in the identity class",
                               [(x, y)])
    asym = np.argwhere(lab != lab.T)
    if asym.size:
        x, y = (int(v) for v in asym[0])
        raise SchemeAxiomError(
            3, f"pair ({x}, {y}) has label {int(lab[x, y])} but ({y}, {x}) has {int(lab[y, x])}",
            [(x, y), (y, x)])
    # Labels lie in 0..d, and n^2 labels leave some class in 0..n^2 empty,
    # so the first empty class is at most top; a count of the labels
    # clipped to top finds it.
    top = min(d + 1, n * n)
    present = np.bincount(np.minimum(lab, top).ravel(), minlength=top + 1) > 0
    k = int(present.argmin())
    if k <= d:
        raise SchemeAxiomError(2, f"class {k} is empty", [])
    # rep[k]: the first pair (x_k, y_k) of class k in row-major order, as a
    # flat index.  Rows are read in blocks of doubling height until every
    # class has a pair; a scheme's row 0 holds every class, so there one
    # row is read.  p[i, j, k] counts the z with label(x_k, z) = i and
    # label(z, y_k) = j.
    rep = np.full(d + 1, -1)
    start, height = 0, 1
    while rep.min() < 0:
        found, first = np.unique(lab[start:start + height], return_index=True)
        new = rep[found] < 0
        rep[found[new]] = start * n + first[new]
        start, height = start + height, 2 * height
    xs, ys = np.unravel_index(rep, lab.shape)
    keys = (np.arange(d + 1)[:, None] * (d + 1) + lab[xs]) * (d + 1) + lab[:, ys].T
    p = np.bincount(keys.ravel(), minlength=(d + 1) ** 3).reshape(d + 1, d + 1, d + 1)
    p = np.ascontiguousarray(p.transpose(1, 2, 0))
    # Axiom 4 holds iff A_i A_j = sum_k p_ij^k A_k for all i <= j; both sides
    # are compared on R, whose integer entries keep every float64 sum exact.
    # In descending i, A_i [R, B_{i+1} .. B_d] gives B_i = A_i R and the
    # left sides for j > i, and A_i B_i the one for j = i.  The pairs are
    # held in row-major order of the upper triangle.
    w = FREIVALDS_COLUMNS
    r = np.random.default_rng(FREIVALDS_SEED).integers(0, 2 ** FREIVALDS_BITS, (n, w)).astype(float)
    iu, ju = np.triu_indices(d + 1)
    b = np.empty((d + 1, n, w))
    lhs = np.empty((len(iu), n, w))
    for i in range(d, -1, -1):
        a = rel.adjacency(i)
        prod = a @ np.hstack([r, *b[i + 1:]])
        b[i] = prod[:, :w]
        row = i * (d + 1) - i * (i - 1) // 2
        lhs[row] = a @ b[i]
        del a
        lhs[row + 1:row + d + 1 - i] = prod[:, w:].reshape(n, d - i, w).transpose(1, 0, 2)
    rhs = p[iu, ju] @ b.reshape(d + 1, n * w)
    differs = np.flatnonzero((lhs.reshape(len(iu), n * w) != rhs).any(axis=1))
    if differs.size:
        _axiom_4_witness(rel, rep, int(iu[differs[0]]), int(ju[differs[0]]))
    return p


def _axiom_4_witness(rel: RelationPartition, rep: np.ndarray, i: int, j: int) -> None:
    """Raise the SchemeAxiomError of the pair (i, j), whose counts vary
    over some class: the first such class, its first pair and its first
    pair with another count."""
    lab = rel.labels
    # Counts are at most n, so float64 products of 0/1 matrices are exact.
    counts = rel.adjacency(i) @ rel.adjacency(j)
    p_ij = counts.flat[rep]
    bad = counts != p_ij[lab]
    if not bad.any():
        raise MethodsDisagreeError(
            f"the Freivalds check refutes A_{i} A_{j} = sum_k p_{{{i},{j}}}^k A_k, "
            f"but its dense product agrees")
    k = int(lab[bad].min())
    x1, y1 = (int(v) for v in np.unravel_index(rep[k], lab.shape))
    x2, y2 = (int(v) for v in np.argwhere(bad & (lab == k))[0])
    raise SchemeAxiomError(
        4,
        f"not a scheme: p_{{{i},{j}}}^{{{k}}} differs between pairs "
        f"({x1}, {y1}) and ({x2}, {y2}): {int(p_ij[k])} vs {int(counts[x2, y2])}",
        [(x1, y1), (x2, y2)])


def _eigenspace_order(P: np.ndarray, mults, tol: float) -> list[int]:
    """Canonical order of eigenspaces given their rows of the first
    eigenmatrix: the trivial eigenspace first (its row sums to n, every
    other row to 0), then decreasing class-1 eigenvalue rounded to
    order_quantum(tol), ties to the smaller multiplicity."""
    j0 = int(np.argmax(P.sum(axis=1)))
    quantum = order_quantum(tol)
    return [j0] + sorted((j for j in range(len(P)) if j != j0),
                         key=lambda j: (-round(P[j, 1] / quantum), mults[j]))


def idempotents(
    rel: RelationPartition,
    params: SchemeParameters,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> tuple[np.ndarray, ...]:
    """Primitive idempotents E_j = U_j U_j^T of the adjacency algebra of
    rel, as their orthonormal eigenvector blocks U_j (n x m_j), in the
    eigenspace order of its SchemeParameters params.

    Diagonalizes a random combination sum_i c_i A_i of the class matrices,
    seeded from DEFAULT_SEEDS, one gather of c through the labels, whose
    eigenvalue on eigenspace j is (P c)[j].  A draw whose values P c lie
    within cluster_gap(tol) of each other, or whose spectrum clusters
    ambiguously at tol, is degenerate and triggers the next seed; running
    out of seeds raises DegenerateElementError.  An ambiguous clustering,
    or clusters of other sizes than the multiplicities, at a tol below
    eigensolve_rounding of the spectrum raises ToleranceAmbiguityError at
    once, since each draw rounds at about that scale.  Otherwise clusters
    of other sizes, or off P c by more than residual_allowance(tol, n),
    mean the two computations disagree (MethodsDisagreeError).

    Each block j >= 1 is then checked on all n^2 entries: (n/m_j) U_j U_j^T,
    symmetrized, must lie within gram_allowance(tol, n) of the gather of
    Q's column j over m_j through the labels, or the two computations
    disagree.  E_0 = I - sum_{j>=1} E_j follows.  Last, every class must
    act on every block as its entry of P (_check_block_residuals): this
    backs each spectrum and rank that the sphere checks read off P.
    """
    check_dense_limit(rel.n, max_dense)
    n, d = rel.n, rel.d
    if (params.n, params.d) != (n, d):
        raise ValueError(f"parameters of a scheme with n = {params.n}, d = {params.d} "
                         f"given for one with n = {n}, d = {d}")
    for seed in DEFAULT_SEEDS:
        coeffs = np.random.default_rng(seed).uniform(1.0, 2.0, d + 1)
        expected = params.P @ coeffs
        # rank[c]: the eigenspace of the c-th cluster in decreasing order.
        rank = np.argsort(-expected)
        if np.min(-np.diff(expected[rank])) <= cluster_gap(tol):
            continue
        w, vecs = np.linalg.eigh(coeffs[rel.labels])
        try:
            values, counts, labels = cluster_values(w, tol)
        except ToleranceAmbiguityError:
            if tol < eigensolve_rounding(w):
                raise
            continue
        mults = [params.multiplicities[j] for j in rank]
        if counts != mults:
            if tol < (rounding := eigensolve_rounding(w)):
                raise ToleranceAmbiguityError(
                    f"the generic element's eigenvalue clusters have sizes {counts}, not P's "
                    f"multiplicities {mults}, at tol {tol!r} below the eigensolve's rounding "
                    f"{float(rounding)!r}; adjust the tolerance")
            raise MethodsDisagreeError(
                f"the generic element's eigenvalue clusters have sizes {counts}, but P's "
                f"eigenspaces, in the same order, have multiplicities {mults}")
        dev = float(np.max(np.abs(np.subtract(values, expected[rank]))))
        allowance = residual_allowance(tol, n)
        if not dev <= allowance:
            raise MethodsDisagreeError(
                f"the generic element's eigenvalue clusters deviate from P's values "
                f"by {dev:.3g} > {allowance:.3g}")
        blocks = tuple(vecs[:, labels == c] for c in np.argsort(rank))
        del vecs
        allowance = gram_allowance(tol, n)
        for j, u in enumerate(blocks[1:], 1):
            gram = u @ u.T
            gram *= n / u.shape[1]
            gram += gram.T
            gram /= 2.0
            gram -= (params.Q[:, j] / u.shape[1])[rel.labels]
            worst = float(np.max(np.abs(gram, out=gram)))
            if not worst <= allowance:
                raise MethodsDisagreeError(
                    f"the Gram of eigenspace {j} formed from its eigenvector block deviates "
                    f"from Q's column {j} by {worst:.3g} > {allowance:.3g}")
        del gram
        _check_block_residuals(rel, params.P, blocks, tol)
        return blocks
    raise DegenerateElementError(
        f"generic element degenerate for every seed in {tuple(DEFAULT_SEEDS)}"
    )


def _check_block_residuals(rel: RelationPartition, P: np.ndarray, blocks, tol: float) -> None:
    """Check A_i E_j = P[j, i] E_j (Bannai-Ito 1984) for every class i and
    eigenspace j on one vector per eigenspace, y_j = U_j U_j^T r, with r a
    standard normal vector drawn from BLOCK_RESIDUAL_SEED:
    |A_i y_j - P[j, i] y_j| must lie within residual_allowance(tol, n)
    |y_j|, or the blocks and P disagree (MethodsDisagreeError).  The class
    matrices are built one at a time into one n x n buffer."""
    n = rel.n
    r = np.random.default_rng(BLOCK_RESIDUAL_SEED).standard_normal(n)
    y = np.column_stack([u @ (u.T @ r) for u in blocks])
    bound = residual_allowance(tol, n) * np.linalg.norm(y, axis=0)
    a = np.empty((n, n))
    for i in range(rel.d + 1):
        resid = np.linalg.norm(rel.adjacency(i, out=a) @ y - y * P[:, i], axis=0)
        bad = np.flatnonzero(~(resid <= bound))
        if bad.size:
            j = int(bad[0])
            raise MethodsDisagreeError(
                f"class {i} does not act on the eigenvector block of eigenspace {j} as "
                f"P[{j}, {i}] = {float(P[j, i])!r}: residual {resid[j]:.3g} > {bound[j]:.3g}")


def character_table(params: SchemeParameters) -> np.ndarray | None:
    """The first eigenmatrix of params as int64 P[j, i], rounded and checked
    exactly against its intersection numbers, or None when some entry is
    not within integrality_allowance of an integer.

    Checked in integers: row 0 is the degrees k; |P[j, i]| <= k_i, so each
    side of P[j, i] P[j, l] = sum_m p_il^m P[j, m], which must hold for all
    j, i, l, is an int64 of at most n^2 (exact below n = 3e9, far beyond any
    relation matrix); and P Q = n I with Q[i, j] = m_j P[j, i]/k_i, in
    Python integers whatever the lcm of the degrees, whose diagonal says
    n / sum_i P[j, i]^2 / k_i = m_j.  A P that rounds but fails any of these
    is a MethodsDisagreeError.

    The d + 1 rows are then distinct characters of the algebra with
    structure constants p, so they are its whole character table, and
    E_j = (1/n) sum_i Q[i, j] A_i are its primitive idempotents, of trace
    m_j (Bannai-Ito 1984).  On the points that algebra is the span of the
    A_i exactly when axiom 4 holds, which validate_scheme certifies, so
    nothing on the points is left to check.
    """
    P = np.rint(params.P)
    if np.any(np.abs(params.P - P) > integrality_allowance(np.abs(params.P))):
        return None
    n, d, k, m = params.n, params.d, params.degrees, params.multiplicities
    P = P.astype(np.int64)
    if not np.array_equal(P[0], k):
        raise MethodsDisagreeError(f"row 0 of the rounded first eigenmatrix, {P[0].tolist()}, "
                                   f"is not the degrees {list(k)}")
    over = np.argwhere(np.abs(P) > np.array(k))
    if over.size:
        j, i = over[0].tolist()
        raise MethodsDisagreeError(f"rounded eigenvalue P[{j}, {i}] = {P[j, i]} exceeds the "
                                   f"degree {k[i]} of class {i}")
    square = P[:, :, None] * P[:, None, :]
    linear = np.einsum("ilm,jm->jil", np.asarray(params.p, dtype=np.int64), P)
    bad = np.argwhere(square != linear)
    if bad.size:
        j, i, l = bad[0].tolist()
        raise MethodsDisagreeError(
            f"row {j} of the rounded first eigenmatrix is not a character of p: "
            f"P[{j}, {i}] P[{j}, {l}] = {square[j, i, l]} but "
            f"sum_m p_{{{i},{l}}}^m P[{j}, m] = {linear[j, i, l]}")
    # K P Q = P diag(K / k) P^T diag(m), with K the lcm of the degrees.
    K = math.lcm(*k)
    exact = P.astype(object)
    gram = (exact * np.array([K // ki for ki in k], dtype=object)) @ exact.T
    bad = np.argwhere(gram * np.array(m, dtype=object) != n * K * np.eye(d + 1, dtype=object))
    if bad.size:
        h, j = bad[0].tolist()
        raise MethodsDisagreeError(
            f"eigenspace {j}: m_{j} sum_i P[{j}, i]^2 / k_i = "
            f"{Fraction(gram[j, j] * m[j], K)}, not n = {n}" if h == j else
            f"rows {h} and {j} of the rounded first eigenmatrix break P Q = n I")
    return P


def krein_parameters(P: np.ndarray, Q: np.ndarray, n: int) -> np.ndarray:
    """Krein numbers q[i, j, k] of a scheme from its eigenmatrices
    (Bannai-Ito 1984): q_ij^k = (1/n) sum_u P[k, u] Q[u, i] Q[u, j]."""
    return np.einsum("ku,ui,uj->ijk", P, Q, Q) / n


@dataclass(frozen=True)
class SchemeParameters:
    """Numerical invariants of a scheme: intersection numbers p[i, j, k],
    both eigenmatrices, degrees, multiplicities, and Krein numbers."""

    n: int
    d: int
    p: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    krein: np.ndarray

    def __post_init__(self):
        if self.degrees[0] != 1 or self.multiplicities[0] != 1:
            raise ValueError("class 0 must have degree 1 and multiplicity 1")
        if sum(self.degrees) != self.n or sum(self.multiplicities) != self.n:
            raise ValueError("degrees and multiplicities must each sum to n")


def eigenmatrices(
    p: np.ndarray,
    n: int,
    tol: float = DEFAULT_TOL,
) -> SchemeParameters:
    """SchemeParameters from the intersection numbers p[i, j, k] of a
    scheme on n points alone, as validate_scheme returns them or
    parametric_parameters admits them.

    The transposed intersection matrices commute (checked exactly); their
    simultaneous diagonalization yields the rows of the first eigenmatrix,
    multiplicities come from degree-weighted row norms, the second
    eigenmatrix is n times the inverse of the first, since PQ = nI in every
    commutative scheme, and the Krein numbers follow from the two
    (Bannai-Ito 1984).  A seed of DEFAULT_SEEDS whose combination of the
    matrices has eigenvalues within cluster_gap(tol) of each other is skipped.
    """
    d = p.shape[0] - 1
    degrees = tuple(int(p[i, i, 0]) for i in range(d + 1))
    bt = [p[i].astype(float) for i in range(d + 1)]
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if not np.array_equal(p[i] @ p[j], p[j] @ p[i]):
                raise ValueError(f"intersection matrices {i} and {j} do not commute")
    for seed in DEFAULT_SEEDS:
        coeffs = np.random.default_rng(seed).uniform(1.0, 2.0, d + 1)
        combo = sum(c * b for c, b in zip(coeffs, bt))
        vals, vecs = np.linalg.eig(combo)
        if np.max(np.abs(vals.imag)) > scaled_allowance(tol, float(np.max(np.abs(vals)))):
            continue
        if np.min(np.diff(np.sort(vals.real))) <= cluster_gap(tol):
            continue
        # Each intersection matrix in the combination's eigenbasis.
        diag = [np.linalg.solve(vecs, b @ vecs) for b in bt]
        if all(np.max(np.abs(di - np.diag(np.diag(di)))) <= integrality_allowance(np.max(np.abs(di)))
               for di in diag):
            rows = np.column_stack([np.diag(di).real for di in diag])
            break
    else:
        raise DegenerateElementError(
            f"no seed in {tuple(DEFAULT_SEEDS)} separated the intersection-matrix eigenvalues")
    deg_vec = np.array(degrees, dtype=float)
    if np.abs(rows - deg_vec).max(axis=1).min() > integrality_allowance(deg_vec.max()):
        raise ValueError("no eigenvalue row matches the degree vector")
    mult_raw = [n / float((rows[j] ** 2 / deg_vec).sum()) for j in range(d + 1)]
    mults = []
    for mv in mult_raw:
        m = int(round(mv))
        if abs(mv - m) > integrality_allowance(abs(mv)):
            raise ValueError(f"non-integral multiplicity {mv}")
        mults.append(m)
    if sum(mults) != n:
        raise ValueError(f"multiplicities {mults} do not sum to n = {n}")
    order = _eigenspace_order(rows, mults, tol)
    pm = rows[order]
    pm[0] = deg_vec
    mults = [mults[j] for j in order]
    qm = n * np.linalg.inv(pm)
    return SchemeParameters(
        n=n, d=d, p=p, P=pm, Q=qm,
        degrees=degrees, multiplicities=tuple(mults), krein=krein_parameters(pm, qm, n),
    )


def _check_tensor(p: np.ndarray, n: int) -> None:
    """Integrity checks on an intersection tensor."""
    if p.ndim != 3 or len(set(p.shape)) != 1:
        raise ValueError("intersection tensor must be cubic")
    d = p.shape[0] - 1
    if d < 1:
        raise ValueError("schemes need at least one class besides the identity")
    if p.min() < 0:
        raise ValueError("intersection numbers must be nonnegative")
    if not np.array_equal(p, p.transpose(1, 0, 2)):
        raise ValueError("inconsistent tensor: p[i, j, k] != p[j, i, k]")
    degrees = tuple(int(p[i, i, 0]) for i in range(d + 1))
    if degrees[0] != 1 or any(k < 1 for k in degrees):
        raise ValueError(f"degrees {degrees} must be positive with degree 1 for class 0")
    if sum(degrees) != n:
        raise ValueError(f"degrees {degrees} do not sum to n = {n}")
    sums = p.sum(axis=0)
    for j in range(d + 1):
        for k in range(d + 1):
            if int(sums[j, k]) != degrees[j]:
                raise ValueError(
                    f"inconsistent tensor: sum_i p[i, {j}, {k}] = {int(sums[j, k])}"
                    f" != degree {degrees[j]}")


def parametric_parameters(
    p,
    n: int,
    tol: float = DEFAULT_TOL,
) -> SchemeParameters:
    """Eigenmatrices from an intersection tensor alone: its integrity
    checks, then eigenmatrices."""
    p = np.array(p, dtype=np.int64)
    _check_tensor(p, n)
    return eigenmatrices(p, n, tol)


def parse_relation_matrix(text: str, max_dense: int | None = DEFAULT_MAX_DENSE) -> RelationPartition:
    """The partition of a relation matrix: a header "n d", then n rows of n
    labels.  n above max_dense is refused before any row is read."""
    header_line, (n, d), lines = read_header(
        text, "empty relation-matrix file", 2, "expected integers, got {row!r}",
        "header must be 'n d'")
    check_dense_limit(n, max_dense)
    labels = read_rows(text, header_line, lines, n, int, "expected integers, got {row!r}",
                       f"expected {n} labels, got {{count}}")
    if len(labels) != n:
        raise ParseError(0, f"header declares {n} rows but {len(labels)} found")
    try:
        return RelationPartition.from_matrix(labels, d=d)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def format_relation_matrix(rel: RelationPartition) -> str:
    lines = [f"{rel.n} {rel.d}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in rel.labels)
    return "\n".join(lines) + "\n"


def parse_intersection_tensor(text: str):
    """(p, n) from an intersection tensor: a header "n d", then one line
    "i j k value" per nonzero p[i, j, k], each triple at most once."""
    header_line, (n, d), lines = read_header(
        text, "empty tensor file", 2, "expected integers, got {row!r}", "header must be 'n d'")
    if d < 1:
        raise ParseError(header_line, "schemes need at least one class besides the identity")
    entries = read_rows(text, header_line, lines, 4, int, "expected integers, got {row!r}",
                        "tensor entries are 'i j k value'")
    ijk = entries[:, :3]
    outside = ((ijk < 0) | (ijk > d)).any(axis=1)
    # A stable sort keeps equal triples in file order: all but the first repeat.
    order = np.lexsort(ijk.T[::-1])
    repeat = np.zeros(len(ijk), dtype=bool)
    repeat[order[1:][(ijk[order[1:]] == ijk[order[:-1]]).all(axis=1)]] = True
    bad = np.flatnonzero(outside | repeat)
    if bad.size:
        i, j, k = ijk[bad[0]].tolist()
        raise ParseError(line_of(text, header_line, bad[0]),
                         f"indices ({i}, {j}, {k}) outside 0..{d}" if outside[bad[0]]
                         else f"second entry for ({i}, {j}, {k})")
    # sum_i p[i, j, k] = k_j >= 1 for every (j, k) (Bannai-Ito 1984), so a
    # valid tensor has at least (d+1)^2 nonzero entries; fewer lines refuse
    # the header before the (d+1)^3 array is allocated.
    if len(entries) < (d + 1) ** 2:
        raise ParseError(header_line, f"header declares {d} classes, which need at least "
                                      f"(d+1)^2 = {(d + 1) ** 2} entry lines, "
                                      f"but {len(entries)} follow")
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    p[tuple(ijk.T)] = entries[:, 3]
    return p, n


def format_intersection_tensor(p: np.ndarray, n: int) -> str:
    lines = [f"{n} {p.shape[0] - 1}"]
    lines.extend(f"{i} {j} {k} {v}" for (i, j, k), v in zip(np.argwhere(p).tolist(),
                                                             p[p != 0].tolist()))
    return "\n".join(lines) + "\n"
