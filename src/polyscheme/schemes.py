"""Symmetric association schemes: axiom validation with witnesses, the
primitive idempotents of the adjacency algebra, eigenmatrices and Krein
parameters, and a parametric route that needs only the intersection
numbers.

Class 0 is always the identity relation.  Eigenmatrix convention: row j,
column i holds the value of class i on eigenspace j, so row 0 of the first
eigenmatrix lists the degrees and row 0 of the second the multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateElementError,
    ParseError,
    SchemeAxiomError,
    ToleranceAmbiguityError,
    content_lines,
)
from .graphs import DistanceData
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    check_dense_limit,
    cluster_values,
)

DEFAULT_SEEDS = (20839, 61409, 92821)
# Alternate generic-element seeds, selectable when the defaults happen to
# produce a degenerate combination for some input.
ALTERNATE_SEEDS = (15137, 48817, 76091)
SEED_SETS = {"default": DEFAULT_SEEDS, "alternate": ALTERNATE_SEEDS}


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

    def adjacency(self, i: int) -> np.ndarray:
        """0/1 float indicator matrix of class i, built afresh."""
        if not 0 <= i <= self.d:
            raise ValueError(f"class {i} outside 0..{self.d}")
        return (self.labels == i).astype(float)

    @cached_property
    def class_matrices(self) -> tuple[np.ndarray, ...]:
        """The read-only indicator matrices of classes 0..d, built once and
        shared by every stage that reads them."""
        mats = tuple(self.adjacency(i) for i in range(self.d + 1))
        for a in mats:
            a.setflags(write=False)
        return mats


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
    # rep[k]: the first pair of class k in row-major order.
    rep = np.empty(d + 1, dtype=np.intp)
    for k in range(d + 1):
        rep[k] = np.argmax(lab.ravel() == k)
        if lab.flat[rep[k]] != k:
            raise SchemeAxiomError(2, f"class {k} is empty", [])
    # Counts are at most n, so float64 products of 0/1 matrices are exact.
    adj = rel.class_matrices
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        for j in range(i, d + 1):
            counts = adj[i] @ adj[j]
            p_ij = counts.flat[rep]
            bad = counts != p_ij[lab]
            if bad.any():
                # The first class, in order, whose counts vary: its first
                # pair and its first pair with another count.
                k = int(lab[bad].min())
                x1, y1 = (int(v) for v in np.unravel_index(rep[k], lab.shape))
                x2, y2 = (int(v) for v in np.argwhere(bad & (lab == k))[0])
                raise SchemeAxiomError(
                    4,
                    f"not a scheme: p_{{{i},{j}}}^{{{k}}} differs between pairs "
                    f"({x1}, {y1}) and ({x2}, {y2}): {int(p_ij[k])} vs {int(counts[x2, y2])}",
                    [(x1, y1), (x2, y2)])
            p[i, j] = p_ij
            p[j, i] = p_ij
    return p


def _eigenspace_order(P: np.ndarray, mults, tol: float) -> list[int]:
    """Canonical order of eigenspaces given their rows of the first
    eigenmatrix: the trivial eigenspace first (its row sums to n, every
    other row to 0), then decreasing class-1 eigenvalue rounded at tol,
    ties to the smaller multiplicity."""
    j0 = int(np.argmax(P.sum(axis=1)))
    return [j0] + sorted((j for j in range(len(P)) if j != j0),
                         key=lambda j: (-round(P[j, 1] / max(tol, 1e-12)), mults[j]))


@dataclass(frozen=True)
class SchemeIdempotents:
    """The primitive idempotents E_j = U_j U_j^T of a scheme, held as their
    orthonormal eigenvector blocks U_j (n x m_j) in canonical order, and
    the eigenvalue eigenvalues[j, i] of class i on eigenspace j."""

    blocks: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(u.shape[1] for u in self.blocks)


def idempotents(
    rel: RelationPartition,
    tol: float = DEFAULT_TOL,
    seeds=DEFAULT_SEEDS,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> SchemeIdempotents:
    """Primitive idempotents of the adjacency algebra, canonically ordered.

    Diagonalizes a random fixed-seed combination of the class matrices.  A
    combination with fewer than d+1 distinct eigenvalues (or an ambiguous
    clustering) is degenerate and triggers the next seed; running out of
    seeds raises DegenerateElementError.  Each block is verified to be an
    eigenspace of every class matrix: with lam = <A_i, E_j>/m_j, every row
    of A_i U_j - lam U_j has 2-norm within 100*tol*n, which bounds every
    entry of A_i E_j - lam E_j by the same amount.
    """
    check_dense_limit(rel.n, max_dense)
    n, d = rel.n, rel.d
    adj = rel.class_matrices
    for seed in seeds:
        coeffs = np.random.default_rng(seed).uniform(1.0, 2.0, d + 1)
        w, vecs = np.linalg.eigh(sum(c * a for c, a in zip(coeffs, adj)))
        try:
            _, counts, labels = cluster_values(w, tol)
        except ToleranceAmbiguityError:
            continue
        if len(counts) != d + 1:
            continue
        member = (labels[:, None] == np.arange(d + 1)).astype(float)
        lam = np.empty((d + 1, d + 1))
        resid = 0.0
        for i, a in enumerate(adj):
            av = a @ vecs
            lam[:, i] = np.einsum("xc,xc->c", vecs, av) @ member / counts
            r = av - vecs * lam[labels, i]
            resid = max(resid, float(np.sqrt((r * r) @ member).max()))
        if resid <= 100 * tol * max(1.0, n):
            order = _eigenspace_order(lam, counts, tol)
            return SchemeIdempotents(tuple(vecs[:, labels == j] for j in order), lam[order])
    raise DegenerateElementError(
        f"generic element degenerate for every seed in {tuple(seeds)}"
    )


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
    rel: RelationPartition,
    idems: SchemeIdempotents,
    tol: float = DEFAULT_TOL,
    p: np.ndarray | None = None,
) -> SchemeParameters:
    """Assemble SchemeParameters from an explicit scheme.

    The first eigenmatrix holds the eigenvalue of each class on each block,
    as idempotents found it, and the multiplicities are the block widths.
    The second eigenmatrix reads each idempotent at the first pair (x, y)
    of each class, Q[j, i] = n U_i[x] . U_i[y].  The two are cross-checked
    by P Q = n I, and the Krein numbers follow from them.
    """
    if p is None:
        p = validate_scheme(rel)
    n, d = rel.n, rel.d
    if [u.shape[0] for u in idems.blocks] != [n] * (d + 1):
        raise ValueError(f"idempotents of another scheme: {idems.multiplicities} on n = {n}")
    mults = idems.multiplicities
    pm = idems.eigenvalues.copy()
    # The first pair of each class in row-major order.
    xs, ys = np.unravel_index([np.argmax(rel.labels == j) for j in range(d + 1)], rel.labels.shape)
    qm = n * np.column_stack([(u[xs] * u[ys]).sum(axis=1) for u in idems.blocks])
    dev = float(np.max(np.abs(pm @ qm - n * np.eye(d + 1))))
    if dev > 100 * tol * max(1.0, n):
        raise ValueError(f"eigenmatrix product deviates from n*I by {dev:.3g}")
    degrees = tuple(int(p[i, i, 0]) for i in range(d + 1))
    if float(np.max(np.abs(pm[0] - np.array(degrees)))) > 100 * tol * max(1.0, n):
        raise ValueError("first eigenmatrix row disagrees with the degrees")
    pm[0] = degrees
    qm[0] = mults
    return SchemeParameters(
        n=n, d=d, p=p, P=pm, Q=qm,
        degrees=degrees, multiplicities=mults,
        krein=krein_parameters(pm, qm, n),
    )


def _check_tensor(p: np.ndarray, n: int) -> tuple[int, ...]:
    """Integrity checks on an intersection tensor; returns the degrees."""
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
    return degrees


def parametric_parameters(
    p,
    n: int,
    tol: float = DEFAULT_TOL,
    seeds=DEFAULT_SEEDS,
) -> SchemeParameters:
    """Eigenmatrices from intersection numbers alone.

    The transposed intersection matrices commute (checked exactly); their
    simultaneous diagonalization yields the rows of the first eigenmatrix,
    multiplicities come from degree-weighted row norms, the second
    eigenmatrix is n times the inverse of the first, and the Krein numbers
    follow from the two as on the explicit route.
    """
    p = np.array(p, dtype=np.int64)
    degrees = _check_tensor(p, n)
    d = p.shape[0] - 1
    bt = [p[i].astype(float) for i in range(d + 1)]
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if not np.array_equal(p[i] @ p[j], p[j] @ p[i]):
                raise ValueError(f"intersection matrices {i} and {j} do not commute")
    rows = None
    for seed in seeds:
        coeffs = np.random.default_rng(seed).uniform(1.0, 2.0, d + 1)
        combo = sum(c * b for c, b in zip(coeffs, bt))
        vals, vecs = np.linalg.eig(combo)
        scale = max(1.0, float(np.max(np.abs(vals))))
        if np.max(np.abs(vals.imag)) > tol * scale:
            continue
        sv = np.sort(vals.real)
        if d >= 1 and np.min(np.diff(sv)) <= 2 * tol * scale:
            continue
        cand = np.empty((d + 1, d + 1))
        ok = True
        for i in range(d + 1):
            di = np.linalg.solve(vecs, bt[i] @ vecs)
            off = di - np.diag(np.diag(di))
            if np.max(np.abs(off)) > 1e-6 * max(1.0, np.max(np.abs(di))):
                ok = False
                break
            cand[:, i] = np.diag(di).real
        if ok:
            rows = cand
            break
    if rows is None:
        raise DegenerateElementError(
            f"no seed in {tuple(seeds)} separated the intersection-matrix eigenvalues")
    deg_vec = np.array(degrees, dtype=float)
    if np.abs(rows - deg_vec).max(axis=1).min() > 1e-6 * max(1.0, deg_vec.max()):
        raise ValueError("no eigenvalue row matches the degree vector")
    mult_raw = [n / float((rows[j] ** 2 / deg_vec).sum()) for j in range(d + 1)]
    mults = []
    for mv in mult_raw:
        m = int(round(mv))
        if abs(mv - m) > 1e-6 * max(1.0, abs(mv)):
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


# --- relation-matrix text format ------------------------------------------
# First line "n d", then n rows of n labels.  Blank lines and "#" comments
# are ignored.


def parse_relation_matrix(text: str) -> RelationPartition:
    header = None
    rows: list[list[int]] = []
    for line_no, tokens in content_lines(text):
        try:
            nums = [int(tok) for tok in tokens]
        except ValueError:
            raise ParseError(line_no, f"expected integers, got {' '.join(tokens)!r}") from None
        if header is None:
            if len(nums) != 2:
                raise ParseError(line_no, "header must be 'n d'")
            header = (nums[0], nums[1])
            continue
        if len(nums) != header[0]:
            raise ParseError(line_no, f"expected {header[0]} labels, got {len(nums)}")
        rows.append(nums)
    if header is None:
        raise ParseError(0, "empty relation-matrix file")
    n, d = header
    if len(rows) != n:
        raise ParseError(0, f"header declares {n} rows but {len(rows)} found")
    try:
        return RelationPartition.from_matrix(rows, d=d)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def format_relation_matrix(rel: RelationPartition) -> str:
    lines = [f"{rel.n} {rel.d}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in rel.labels)
    return "\n".join(lines) + "\n"


# --- intersection-tensor text format --------------------------------------
# First line "n d", then one line "i j k value" per nonzero entry, each
# triple at most once.  Blank lines and "#" comments are ignored.

_INT64 = np.iinfo(np.int64)


def parse_intersection_tensor(text: str):
    header = None
    entries: dict[tuple[int, int, int], int] = {}
    for line_no, tokens in content_lines(text):
        try:
            nums = [int(tok) for tok in tokens]
        except ValueError:
            raise ParseError(line_no, f"expected integers, got {' '.join(tokens)!r}") from None
        if header is None:
            if len(nums) != 2:
                raise ParseError(line_no, "header must be 'n d'")
            header, header_line = nums, line_no
            if header[1] < 1:
                raise ParseError(line_no, "schemes need at least one class besides the identity")
            continue
        if len(nums) != 4:
            raise ParseError(line_no, "tensor entries are 'i j k value'")
        i, j, k, val = nums
        if not (0 <= i <= header[1] and 0 <= j <= header[1] and 0 <= k <= header[1]):
            raise ParseError(line_no, f"indices ({i}, {j}, {k}) outside 0..{header[1]}")
        if (i, j, k) in entries:
            raise ParseError(line_no, f"second entry for ({i}, {j}, {k})")
        if not _INT64.min <= val <= _INT64.max:
            raise ParseError(line_no, f"value {val} outside the 64-bit integer range")
        entries[i, j, k] = val
    if header is None:
        raise ParseError(0, "empty tensor file")
    n, d = header
    if d + 1 > len(entries):
        raise ParseError(header_line, f"header declares {d} classes, which need {d + 1} degree"
                                      f" lines 'i i 0 k_i', but {len(entries)} entry lines follow")
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for ijk, val in entries.items():
        p[ijk] = val
    return p, n


def format_intersection_tensor(p: np.ndarray, n: int) -> str:
    d = p.shape[0] - 1
    lines = [f"{n} {d}"]
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                if p[i, j, k]:
                    lines.append(f"{i} {j} {k} {int(p[i, j, k])}")
    return "\n".join(lines) + "\n"
