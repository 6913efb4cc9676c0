"""Spherical few-distance sets given by Gram matrices: the dimension/
distance-count bound, the dual eigenvalue-forcing checks, and the
Schur-diameter (least degree at which entrywise polynomials of the Gram
matrix reach full rank).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GramError,
    MethodsDisagreeError,
    ParseError,
    SchurDisconnectedError,
    ToleranceAmbiguityError,
    line_of,
    read_header,
    read_rows,
)
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    check_dense_limit,
    cluster_values,
    determinant_allowance,
    eigen_clusters,
    eval_matrix_poly,
    eval_root_product,
    gram_allowance,
    interpolation_allowance,
    k_factors,
    lagrange_denominators,
    lookup_multiplicity,
    rank_allowance,
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
class SchemeAlgebra:
    """The Bose-Mesner data of a sphere built from a scheme eigenspace.

    The sphere's Gram matrix is sum_i class_values[i] A_i over the scheme
    classes i = 0..d, and scheme class i lies in sphere class classes[i].
    A_i acts on scheme eigenspace k, of multiplicity multiplicities[k], as
    the scalar P[k, i] (Bannai-Ito 1984), so every entrywise polynomial of
    the Gram and every sphere class graph has its spectrum read off P.
    certified is set when P is certified exactly (schemes.character_table):
    those spectra are then theorems, and no dense eigensolve or determinant
    re-tests them.
    """

    class_values: np.ndarray
    classes: np.ndarray
    P: np.ndarray
    multiplicities: np.ndarray
    certified: bool = False

    def rank(self, values, tol: float) -> int:
        """Rank of the entrywise polynomial f(G) whose values at
        class_values are values: it is sum_i f(v_i) A_i, whose eigenvalue
        on eigenspace k is sum_i f(v_i) P[k, i], counted m_k times.  A
        full rank whose least eigenvalue is above tol but within its
        rank_allowance of it, where a dense eigensolve may read a rank
        below n, is a ToleranceAmbiguityError."""
        lam = np.abs(self.P @ values)
        least = float(lam.min())
        allowance = rank_allowance(lam, int(self.multiplicities.sum()))
        if tol < least <= tol + allowance:
            raise ToleranceAmbiguityError(
                f"eigenvalue {least!r} of an entrywise polynomial, read off P, is above tol "
                f"{tol!r} but within its rounding allowance {allowance!r}; adjust the tolerance")
        return int(self.multiplicities[lam > tol].sum())

    def certifies(self, values, dense, tol: float) -> bool:
        """Whether dense, the n x n matrix of the entrywise polynomial whose
        values at class_values are values, has the determinant P gives,
        prod_k lam_k^{m_k} with every |lam_k| > tol: the sign exactly, and
        log|det| within determinant_allowance."""
        lam = self.P @ values
        if not np.all(np.abs(lam) > tol):
            return False
        sign, logdet = np.linalg.slogdet(dense)
        m = self.multiplicities
        return bool(sign == (-1.0) ** int(m[lam < 0].sum())
                    and abs(logdet - float(m @ np.log(np.abs(lam))))
                    <= determinant_allowance(lam, m, tol))

    def class_multiplicity(self, c: int, value: float, tol: float) -> int:
        """Multiplicity of value (numerics.lookup_multiplicity) in the
        spectrum of the sphere class-c graph, the sum of its scheme classes."""
        lam = self.P[:, self.classes == c].sum(axis=1)
        return lookup_multiplicity(lam, self.multiplicities, value, tol)


@dataclass(frozen=True)
class SphericalSet:
    """Distinct unit vectors described by their Gram matrix.

    values[0] is the diagonal 1; values[1:] are the clustered distinct
    off-diagonal inner products in decreasing order, all below 1.
    labels[x, y] indexes values, with 0 exactly on the diagonal, in the
    smallest unsigned dtype that holds s.  gram and labels are read-only
    and exactly symmetric.  algebra is set on a sphere built from a scheme
    eigenspace, and None on a standalone Gram.
    """

    gram: np.ndarray
    dimension: int
    values: tuple[float, ...]
    labels: np.ndarray
    tolerance: float
    algebra: SchemeAlgebra | None = None

    @property
    def n(self) -> int:
        return len(self.gram)

    @property
    def s(self) -> int:
        """Number of distinct off-diagonal inner products."""
        return len(self.values) - 1

    def distance_class(self, i: int, out=None) -> np.ndarray:
        """0/1 adjacency matrix of the pairs with inner product values[i],
        as floats, written into out when given."""
        if not 1 <= i <= self.s:
            raise ValueError(f"class {i} outside 1..{self.s}")
        return np.equal(self.labels, i, out=np.empty(self.labels.shape) if out is None else out)


def from_gram(
    m,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> SphericalSet:
    """Admit a caller's matrix as the Gram matrix of a SphericalSet.

    The matrix must be square, non-empty and finite (ValueError), have at
    most max_dense rows, and have unit diagonal within tol.  It is then
    symmetrized once, as (A + A^T)/2, into the set's own read-only copy,
    with the diagonal snapped to exactly 1; the checks that read the set
    trust it and check no limit again.  Requires no eigenvalue below
    -gram_allowance(tol, n), which also bounds those the dimension counts
    as zero, and no off-diagonal value at 1 (repeated points).  The number
    of distinct inner products is decided by clustering the strict upper
    triangle at tol; the lower one mirrors it.
    """
    src = np.asarray(m, dtype=float)
    if src.ndim != 2 or src.shape[0] != src.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {src.shape}")
    if src.shape[0] == 0:
        raise ValueError("matrix must have at least one row")
    check_dense_limit(len(src), max_dense)
    if not np.all(np.isfinite(src)):
        raise ValueError("matrix entries must be finite")
    diag_dev = float(np.max(np.abs(np.diagonal(src) - 1.0)))
    if not diag_dev <= tol:
        raise GramError(f"diagonal deviates from 1 by {diag_dev:.3g} > tol")
    gram = src + src.T
    gram /= 2.0
    np.fill_diagonal(gram, 1.0)
    gram.setflags(write=False)
    n = len(gram)
    w = np.linalg.eigvalsh(gram)
    wmin = float(w.min())
    allowance = gram_allowance(tol, n)
    if wmin < -allowance:
        raise GramError(f"not positive semidefinite: least eigenvalue {wmin:.3g} < -{allowance:.3g}")
    if n > 1:
        upper = ~np.tri(n, dtype=bool)
        vals, _, lab = cluster_values(gram[upper], tol)
        if vals[0] >= 1.0 - tol:
            raise GramError(f"repeated points: off-diagonal inner product {vals[0]:.6g}")
        labels = np.zeros((n, n), dtype=np.min_scalar_type(len(vals)))
        lab += 1
        labels[upper] = lab
        labels += labels.T
        values = (1.0, *vals)
    else:
        labels = np.zeros((1, 1), dtype=np.uint8)
        values = (1.0,)
    labels.setflags(write=False)
    return SphericalSet(
        gram=gram,
        dimension=int(np.count_nonzero(np.abs(w) > allowance)),
        values=values,
        labels=labels,
        tolerance=tol,
    )


def from_idempotent(rel, params, table, j: int, tol: float = DEFAULT_TOL) -> SphericalSet:
    """Unit-sphere embedding carried by eigenspace j of the scheme rel, whose
    SchemeParameters are params; table is its integral P as certified by
    schemes.character_table, or None.

    Its Gram is (n/m_j) E_j = sum_i v_i A_i with v_i = Q[i, j]/m_j, the
    gather of v through rel.labels with the diagonal set to 1.  With a
    table, v must lie within gram_allowance(tol, n) of the exact
    P[j, i]/k_i (else MethodsDisagreeError); without one,
    schemes.idempotents has checked the eigensolve against this Gram.  The
    values are v clustered at tol (d numbers, not n^2), the labels one
    gather of that clustering, and the dimension m_j.  A value within tol
    of 1 (repeated points) is a GramError.  The scheme was admitted, so no
    dense limit is checked.
    """
    if not 1 <= j <= params.d:
        raise ValueError(f"eigenspace {j} outside 1..{params.d}")
    mj = params.multiplicities[j]
    class_values = params.Q[:, j] / mj
    if table is not None:
        allowance = gram_allowance(tol, params.n)
        worst = float(np.max(np.abs(class_values - table[j] / np.array(params.degrees))))
        if not worst <= allowance:
            raise MethodsDisagreeError(
                f"Q's column {j} over m_{j} deviates from the certified P[{j}, i]/k_i "
                f"by {worst:.3g} > {allowance:.3g}")
    vals, _, lab = cluster_values(class_values[1:], tol)
    if vals[0] >= 1.0 - tol:
        raise GramError(f"repeated points: off-diagonal inner product {vals[0]:.6g}")
    classes = np.concatenate(([0], lab + 1)).astype(np.min_scalar_type(len(vals)))
    gram = class_values[rel.labels]
    np.fill_diagonal(gram, 1.0)
    gram.setflags(write=False)
    labels = classes[rel.labels]
    labels.setflags(write=False)
    algebra = SchemeAlgebra(class_values, classes, params.P, np.asarray(params.multiplicities),
                            table is not None)
    return SphericalSet(gram, mj, (1.0, *vals), labels, tol, algebra)


def schur_floor(sph: SphericalSet) -> int:
    """Least degree t <= s with N(m, t) >= n, where m is the dimension.

    A degree-t entrywise polynomial of a Gram of rank m has rank at most
    N(m, t) (Delsarte-Goethals-Seidel 1977), so no lower degree reaches
    full rank.  0 when m = 0, and s when no degree below s qualifies, so
    that the search always reaches s.
    """
    if sph.dimension == 0:
        return 0
    return next((t for t in range(sph.s) if absolute_bound(sph.dimension, t) >= sph.n), sph.s)


def schur_diameter(sph: SphericalSet) -> int:
    """Least t such that some degree-t entrywise polynomial of the set's
    Gram matrix has full rank, where degree 0 is the all-ones matrix.
    Ranks count eigenvalues above the set's own tolerance.

    Tries one random combination per seed of SCHUR_SEEDS at each degree t
    from schur_floor(sph) to s.  At t = s it also tries the normalized
    annihilator prod (x - v)/(1 - v) of the off-diagonal values v, in
    product form, which on the unit-diagonal Gram matrix is the identity
    (Delsarte-Goethals-Seidel), so no degree above s is searched.

    On a standalone Gram each trial's rank is an eigensolve.  On a scheme
    sphere it is read off P (SchemeAlgebra.rank) from the trial's values
    at the class values.  On a certified scheme that rank is final.
    Otherwise the first full-rank trial is formed densely, as the
    certificate: its determinant must be the one P gives
    (SchemeAlgebra.certifies).  Failing that, its dense eigensolve decides,
    and a dense rank below n is a MethodsDisagreeError.
    """
    tol, algebra = sph.tolerance, sph.algebra
    for t in range(schur_floor(sph), sph.s + 1):
        # Each trial is built only once the one before it has failed.
        for seed in [*SCHUR_SEEDS, None] if t == sph.s else SCHUR_SEEDS:
            if seed is None:
                # 1 / prod (1 - v) = 1 / L_0, positive since every v < 1.
                scale = math.exp(-lagrange_denominators(sph.values)[1][0])
                poly = functools.partial(eval_root_product, sph.values[1:], scale)
            else:
                coeffs = np.random.default_rng([seed, t]).standard_normal(t + 1)
                poly = functools.partial(eval_matrix_poly, coeffs / np.linalg.norm(coeffs))
            values = None if algebra is None else poly(algebra.class_values)
            if values is not None:
                if algebra.rank(values, tol) < sph.n:
                    continue
                if algebra.certified:
                    return t
            dense = poly(sph.gram)
            if values is not None and algebra.certifies(values, dense, tol):
                return t
            rank = rank_tol(dense, tol)
            if rank == sph.n:
                return t
            if algebra is not None:
                raise MethodsDisagreeError(
                    f"P gives a degree-{t} entrywise polynomial full rank {sph.n}, "
                    f"but its dense eigensolve gives rank {rank}")
    raise SchurDisconnectedError(sph.s)


def verify_sphere_theorem(
    sph: SphericalSet,
    route: str = "size",
    declared_d: int | None = None,
) -> TheoremReport:
    """Check the forced eigenvalues of the distance-class graphs.

    route "size" takes |X| > N(m, d-1) as the hypothesis (d defaulting to
    the observed distance count); route "schur" instead requires the
    computed Schur-diameter to equal the distance count.  Conclusions
    checked for each class i: -K*_i is an eigenvalue of the class-i graph
    with multiplicity at least |X| - N(m, d-1), found within
    lookup_allowance, and the interpolating entrywise polynomial identity
    f*_i(M) = K*_i I + A_i holds to interpolation_allowance, both of the
    set's own tolerance.  f*_i(x) = prod_{j >= 1, j != i} (x - v_j)/(v_i - v_j)
    is evaluated in product form, on a standalone Gram into one n x n
    buffer, from which A_i and K*_i I are subtracted in place.  A scheme
    sphere's Gram gathers the scheme's class values, so the same float
    operations run on those values alone, and each class spectrum is read
    off P; unless the scheme is certified, class 1's is also solved densely
    as a cross-check.
    A single point (s = 0) has no class to force, so neither route's
    hypothesis holds.
    """
    theorem = "sphere-eigenvalue"
    tol = sph.tolerance
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
        sd = schur_diameter(sph)
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
    sign, log = lagrange = lagrange_denominators(sph.values)
    algebra = sph.algebra
    if algebra is None:
        interp, ai = np.empty((n, n)), np.empty((n, n))
    else:
        # The Gram's entries are the scheme's class values: 1 on the
        # diagonal (class 0), class_values[c] at the pairs of class c.
        at = algebra.class_values.copy()
        at[0] = 1.0
    for i, ki in enumerate(k_factors(lagrange), 1):
        # prod_{j >= 1, j != i} (v_i - v_j) = L_i / (v_i - 1).
        scale = (sph.values[i] - 1.0) / (sign[i] * math.exp(log[i]))
        roots = [sph.values[j] for j in range(1, d + 1) if j != i]
        if algebra is None:
            # ai is the product's scratch array until it holds A_i.
            eval_root_product(roots, scale, sph.gram, out=interp, scratch=ai)
            interp.ravel()[:: n + 1] -= ki
            interp -= sph.distance_class(i, out=ai)
            resid = float(np.max(np.abs(interp, out=interp)))
            mult = eigen_clusters(ai, tol, max_dense=None).multiplicity_of(-ki)
        else:
            # The same float operations as on the n^2 entries, once per value.
            interp = eval_root_product(roots, scale, at)
            interp[0] -= ki
            interp -= algebra.classes == i
            resid = float(np.max(np.abs(interp)))
            mult = algebra.class_multiplicity(i, -ki, tol)
            if i == 1 and not algebra.certified:
                # The class-1 spectrum read off P, cross-checked densely.
                dense = eigen_clusters(sph.distance_class(1), tol, max_dense=None)
                if (dense_mult := dense.multiplicity_of(-ki)) != mult:
                    raise MethodsDisagreeError(
                        f"class 1 has eigenvalue {-ki!r} with multiplicity {mult} by P "
                        f"but {dense_mult} by its dense spectrum")
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
        if resid > interpolation_allowance(tol):
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


def parse_gram_matrix(text: str, max_dense: int | None = DEFAULT_MAX_DENSE) -> np.ndarray:
    """A Gram file's matrix as read (from_gram symmetrizes it): a header "n",
    then n rows of n reals.  n above max_dense is refused before any row is read."""
    header_line, (n,), lines = read_header(text, "empty input", 1, "bad count {row!r}",
                                           "expected a single count, got {row!r}")
    if n < 1:
        raise ParseError(header_line, f"count must be positive, got {n}")
    check_dense_limit(n, max_dense)
    try:
        a = read_rows(text, header_line, lines, n, float, "bad entry in {row!r}",
                      f"expected {n} entries, got {{count}}", max_rows=n)
    except ParseError as exc:
        # A row past the nth is refused as such, before any fault in it.
        if (extra := line_of(text, header_line, n)) is None or extra > exc.line_no:
            raise
        raise ParseError(extra, f"more than {n} rows") from None
    if len(a) > n:
        raise ParseError(line_of(text, header_line, n), f"more than {n} rows")
    if len(a) != n:
        raise ParseError(0, f"expected {n} rows, got {len(a)}")
    bad_rows = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad_rows.size:
        raise ParseError(line_of(text, header_line, bad_rows[0]), "entries must be finite")
    a.setflags(write=False)
    return a


def format_gram_matrix(m) -> str:
    lines = [str(len(m))]
    lines.extend(" ".join(map(repr, row)) for row in np.asarray(m, dtype=float).tolist())
    return "\n".join(lines) + "\n"
