"""Spherical few-distance sets given by Gram matrices: the dimension/
distance-count bound, the dual eigenvalue-forcing checks, and the
Schur-diameter (least degree at which entrywise polynomials of the Gram
matrix reach full rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GramError, ParseError, SchurDisconnectedError, content_lines
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    SymMatrix,
    check_dense_limit,
    cluster_values,
    eigen_clusters,
    eval_matrix_poly,
    k_factor,
    poly_from_roots,
    rank_tol,
)
from .reports import FAIL, HYPOTHESIS_NOT_MET, PASS, TheoremReport

SCHUR_SEEDS = (4241, 7151, 9343)


def absolute_bound(m: int, d: int) -> int:
    """C(m+d-1, d) + C(m+d-2, d-1): the most points on a sphere in R^m
    with d distinct pairwise inner products.  Exact integers."""
    if m < 1:
        raise ValueError("dimension must be at least 1")
    if d < 0:
        raise ValueError("distance count must be nonnegative")
    if d == 0:
        return 1
    return math.comb(m + d - 1, d) + math.comb(m + d - 2, d - 1)


@dataclass(frozen=True)
class SphericalSet:
    """Distinct unit vectors described by their Gram matrix.

    values[0] is the diagonal 1; values[1:] are the clustered distinct
    off-diagonal inner products in decreasing order, all below 1.
    labels[x, y] indexes values, with 0 exactly on the diagonal.
    """

    gram: SymMatrix
    dimension: int
    values: tuple[float, ...]
    labels: np.ndarray
    tolerance: float

    @property
    def n(self) -> int:
        return self.gram.n

    @property
    def s(self) -> int:
        """Number of distinct off-diagonal inner products."""
        return len(self.values) - 1

    def distance_class(self, i: int) -> np.ndarray:
        """0/1 adjacency matrix of the pairs with inner product values[i]."""
        if not 1 <= i <= self.s:
            raise ValueError(f"class {i} outside 1..{self.s}")
        return (self.labels == i).astype(float)


def from_gram(
    m,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> SphericalSet:
    """Build a SphericalSet from a Gram matrix, a SymMatrix or an array.

    The set is admitted here against max_dense; the checks that read it do
    not check the limit again.  Requires unit diagonal within tol (then
    snapped to exactly 1), positive semidefiniteness within tol, and no
    off-diagonal value at 1 (repeated points).  The number of distinct
    inner products is decided by clustering at tol.
    """
    src = m.a if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    check_dense_limit(len(src), max_dense)
    diag_dev = float(np.max(np.abs(np.diagonal(src) - 1.0)))
    if not diag_dev <= tol:
        raise GramError(f"diagonal deviates from 1 by {diag_dev:.3g} > tol")
    a = np.array(src)
    np.fill_diagonal(a, 1.0)
    gram = SymMatrix(a)
    n = gram.n
    w = np.linalg.eigvalsh(gram.a)
    wmin = float(w.min())
    if wmin < -tol:
        raise GramError(f"not positive semidefinite: least eigenvalue {wmin:.3g}")
    labels = np.zeros((n, n), dtype=int)
    off = ~np.eye(n, dtype=bool)
    if n > 1:
        vals, _, lab = cluster_values(gram.a[off], tol)
        if vals[0] >= 1.0 - tol:
            raise GramError(f"repeated points: off-diagonal inner product {vals[0]:.6g}")
        labels[off] = lab + 1
        values = (1.0, *vals)
    else:
        values = (1.0,)
    labels.setflags(write=False)
    return SphericalSet(
        gram=gram,
        dimension=int(np.count_nonzero(np.abs(w) > tol)),
        values=values,
        labels=labels,
        tolerance=tol,
    )


def from_idempotent(params, idems, j: int, tol: float = DEFAULT_TOL) -> SphericalSet:
    """Unit-sphere embedding carried by idempotent j of a SchemeIdempotents:
    Gram = (n/m_j) E_j = (n/m_j) U_j U_j^T, whose off-diagonal values are
    the column-j second-eigenmatrix entries divided by m_j.  The Gram is
    formed here from the eigenvector block, in one product scaled in place;
    the scheme was admitted with its blocks, so no dense limit is checked."""
    if not 1 <= j <= params.d:
        raise ValueError(f"eigenspace {j} outside 1..{params.d}")
    u = idems.blocks[j]
    gram = u @ u.T
    gram *= params.n / params.multiplicities[j]
    return from_gram(gram, tol, max_dense=None)


def schur_diameter(sph: SphericalSet, tol: float = DEFAULT_TOL, seeds=SCHUR_SEEDS) -> int:
    """Least t such that some degree-t entrywise polynomial of the set's
    Gram matrix has full rank, where degree 0 is the all-ones matrix.

    Tries a few fixed-seed random combinations at each degree t <= s.  At
    t = s it also tries the annihilator prod (x - v) of the off-diagonal
    values v, which on the unit-diagonal Gram matrix is a positive multiple
    of the identity (Delsarte-Goethals-Seidel), so no degree above s is
    searched.
    """
    for t in range(sph.s + 1):
        trials = []
        for seed in seeds:
            coeffs = np.random.default_rng([seed, t]).standard_normal(t + 1)
            trials.append(coeffs / np.linalg.norm(coeffs))
        if t == sph.s:
            trials.append(poly_from_roots(sph.values[1:]))
        for coeffs in trials:
            if rank_tol(eval_matrix_poly(coeffs, sph.gram), tol, max_dense=None) == sph.n:
                return t
    raise SchurDisconnectedError(sph.s)


def verify_sphere_theorem(
    sph: SphericalSet,
    tol: float = DEFAULT_TOL,
    route: str = "size",
    declared_d: int | None = None,
) -> TheoremReport:
    """Check the forced eigenvalues of the distance-class graphs.

    route "size" takes |X| > N(m, d-1) as the hypothesis (d defaulting to
    the observed distance count); route "schur" instead requires the
    computed Schur-diameter to equal the distance count.  Conclusions
    checked for each class i: -K*_i is an eigenvalue of the class-i graph
    with multiplicity at least |X| - N(m, d-1), and the interpolating
    entrywise polynomial identity f*_i(M) = K*_i I + A_i holds to 100*tol.
    A single point (s = 0) has no class to force, so neither route's
    hypothesis holds.
    """
    theorem = "sphere-eigenvalue"
    n, mdim, s = sph.n, sph.dimension, sph.s
    if route not in ("size", "schur"):
        raise ValueError(f"unknown route {route!r}; expected 'size' or 'schur'")
    if route == "schur" and declared_d is not None:
        raise ValueError("a declared distance count applies to the size route only")
    d = s if declared_d is None else declared_d
    if d < s:
        raise ValueError(f"declared distance count {d} below the observed {s}")
    subject = f"sphere(n={n}, m={mdim}, s={s})"
    evidence: dict = {"n": n, "m": mdim, "values": list(sph.values), "route": route}
    if s == 0:
        evidence["summary"] = "a single point has no distance class to force an eigenvalue"
        return TheoremReport(subject, theorem, HYPOTHESIS_NOT_MET, tol, evidence)
    if route == "schur":
        sd = schur_diameter(sph, tol)
        evidence["schur_diameter"] = sd
        if sd != s:
            evidence["summary"] = f"Schur-diameter {sd} != distance count {s}"
            return TheoremReport(subject, theorem, HYPOTHESIS_NOT_MET, tol, evidence)
    bound = absolute_bound(mdim, d - 1)
    evidence["d"] = d
    evidence["absolute_bound"] = bound
    if route == "size":
        if n <= bound:
            evidence["summary"] = f"n = {n} <= N({mdim}, {d - 1}) = {bound}; size hypothesis not met"
            return TheoremReport(subject, theorem, HYPOTHESIS_NOT_MET, tol, evidence)
        if s != d:
            evidence["witness"] = ["value-count", s, d]
            evidence["summary"] = f"distance count {s} != required {d}"
            return TheoremReport(subject, theorem, FAIL, tol, evidence)
    floor = n - bound
    checks = []
    failures = []
    for i in range(1, d + 1):
        ki = k_factor(sph.values, i)
        ai = SymMatrix(sph.distance_class(i))
        spec_i = eigen_clusters(ai, tol, max_dense=None)
        mult = spec_i.multiplicity_of(-ki, 10 * tol)
        roots = [sph.values[j] for j in range(1, d + 1) if j != i]
        denom = 1.0
        for r in roots:
            denom *= sph.values[i] - r
        interp = eval_matrix_poly(poly_from_roots(roots, 1.0 / denom), sph.gram)
        target = ki * np.eye(n) + ai.a
        resid = float(np.max(np.abs(interp.a - target)))
        checks.append({
            "class": i,
            "k_star": ki,
            "eigenvalue": -ki,
            "multiplicity": mult,
            "floor": floor,
            "interp_residual": resid,
        })
        if mult == 0:
            failures.append(["eigenvalue-missing", i])
        elif mult < floor:
            failures.append(["multiplicity", i, mult, floor])
        if resid > 100 * tol:
            failures.append(["interpolation", i, resid])
    evidence["checks"] = checks
    if failures:
        evidence["witness"] = failures[0]
        evidence["summary"] = f"conclusion violated: {failures[0]}"
        return TheoremReport(subject, theorem, FAIL, tol, evidence)
    evidence["summary"] = (
        f"all {d} distance classes carry the forced eigenvalue with multiplicity >= {floor}"
    )
    return TheoremReport(subject, theorem, PASS, tol, evidence)


# --- Gram-matrix text format ----------------------------------------------
# First line "n", then n rows of n reals.  Blank lines and "#" comments are
# ignored.  Entries are symmetrized on load.


def parse_gram_matrix(text: str) -> SymMatrix:
    n = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    for line_no, parts in content_lines(text):
        if n is None:
            if len(parts) != 1:
                raise ParseError(line_no, f"expected a single count, got {' '.join(parts)!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise ParseError(line_no, f"bad count {parts[0]!r}") from None
            if n < 1:
                raise ParseError(line_no, f"count must be positive, got {n}")
            continue
        if len(rows) == n:
            raise ParseError(line_no, f"more than {n} rows")
        try:
            row = [float(x) for x in parts]
        except ValueError:
            raise ParseError(line_no, f"bad entry in {' '.join(parts)!r}") from None
        if len(row) != n:
            raise ParseError(line_no, f"expected {n} entries, got {len(row)}")
        rows.append(row)
        row_lines.append(line_no)
    if n is None:
        raise ParseError(0, "empty input")
    if len(rows) != n:
        raise ParseError(0, f"expected {n} rows, got {len(rows)}")
    a = np.array(rows, dtype=float)
    bad_rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad_rows.size:
        raise ParseError(row_lines[bad_rows[0]], "entries must be finite")
    return SymMatrix(a)


def format_gram_matrix(m: SymMatrix) -> str:
    lines = [str(m.n)]
    for row in m.a:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
