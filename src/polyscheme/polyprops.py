"""Detection of P- and Q-polynomial structure in association schemes.

Three routes per side: a direct detector (the BFS levels of the index
graph of the intersection numbers or of the Krein numbers), a size-based
sufficient condition against the degree/diameter or dimension/distance
bound, and the product-formula characterization that pins down the last
class of the ordering.  analyze_scheme runs all of them, and the
sphere check of each eigenspace, once per scheme.

Verdicts are three-valued; the size conditions can only ever say
"polynomial" or "inconclusive", never "not_polynomial".
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import GramError, MethodsDisagreeError, ToleranceAmbiguityError
from .graphs import moore_bound
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    check_dense_limit,
    integrality_allowance,
    k_factors,
    krein_allowance,
    lagrange_denominators,
    scaled_allowance,
)
from .reports import HYPOTHESIS_NOT_MET, TheoremReport
from .schemes import (
    RelationPartition,
    SchemeParameters,
    character_table,
    eigenmatrices,
    idempotents,
    parametric_parameters,
    validate_scheme,
)
from .spherical import (
    SphericalSet,
    absolute_bound,
    from_idempotent,
    schur_diameter,
    verify_sphere_theorem,
)

POLYNOMIAL = "polynomial"
NOT_POLYNOMIAL = "not_polynomial"
INCONCLUSIVE = "inconclusive"

_VERDICTS = frozenset({POLYNOMIAL, NOT_POLYNOMIAL, INCONCLUSIVE})


@dataclass
class PolyVerdict:
    """Outcome of one polynomial-structure question.

    kind is "P" (ordering of the classes) or "Q" (ordering of the
    eigenspaces); base_index names the class or eigenspace asked about.
    ordering, when present, starts 0, base_index.
    """

    kind: str
    base_index: int
    status: str
    ordering: tuple[int, ...] | None = None
    reason: str | None = None
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("P", "Q"):
            raise ValueError(f"kind must be 'P' or 'Q', got {self.kind!r}")
        if self.status not in _VERDICTS:
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.ordering is not None:
            if len(self.ordering) < 2 or self.ordering[0] != 0 or self.ordering[1] != self.base_index:
                raise ValueError(f"ordering {self.ordering} must start 0, {self.base_index}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "base_index": self.base_index,
            "status": self.status,
            "ordering": list(self.ordering) if self.ordering is not None else None,
            "reason": self.reason,
            "evidence": self.evidence,
        }


# The words of each side of the P/Q duality (Bannai-Ito 1984); the entry
# points pass each shared step the side's data: the column of P or Q, the
# other eigenmatrix, the tensor and the bound.
_Side = namedtuple("_Side", "kind index size bound not_path unseparated not_distinct no_match")
_P = _Side("P", "class", "degree", "M", "intersection-number index graph is not a path from 0",
           "degree not separated from the other eigenvalues",
           "eigenvalues of the class are not mutually distinct",
           "no eigenspace index matches the product formula")
_Q = _Side("Q", "eigenspace", "multiplicity", "N", "Krein-number index graph is not a path from 0",
           "multiplicity not separated from the other column values",
           "column values of the eigenspace are not mutually distinct",
           "no class index matches the product formula")


def _column(side: _Side, params: SchemeParameters, j: int) -> np.ndarray:
    """Column j of the side's eigenmatrix, P or Q."""
    if not 1 <= j <= params.d:
        raise ValueError(f"{side.index} {j} outside 1..{params.d}")
    return getattr(params, side.kind)[:, j]


def _head_separated(col, tol: float) -> bool:
    return bool(np.all(np.abs(col[1:] - col[0]) > tol))


def _bfs_levels(size: int, linked) -> np.ndarray:
    """BFS levels from node 0 of size nodes, -1 if unreached.  linked(rows,
    cols) is the boolean block of links, read only at the frontier rows and
    the unreached columns: O(size^2) in all, and no size x size block."""
    levels = np.full(size, -1)
    frontier, t = np.array([0]), 0
    while frontier.size:
        levels[frontier], t = t, t + 1
        unreached = np.flatnonzero(levels < 0)
        frontier = unreached[linked(frontier, unreached).any(axis=0)]
    return levels


def _index_levels(tensor: np.ndarray, j: int, threshold: float) -> np.ndarray:
    """BFS levels from index 0 in the index graph of slice j: h and i linked
    when |tensor[j, h, i]| or |tensor[j, i, h]| exceeds threshold."""
    link = np.abs(tensor[j]) > threshold
    link |= link.T
    return _bfs_levels(len(link), lambda rows, cols: link[np.ix_(rows, cols)])


def _path_ordering(levels: np.ndarray, j: int) -> tuple[int, ...] | None:
    """The indices sorted by level, if the index graph is a path starting
    0, j: every index reached, top level d and level 1 = {j}, so that each
    level holds one index."""
    if levels.min() < 0 or levels.max() != len(levels) - 1 or levels[j] != 1:
        return None
    return tuple(np.argsort(levels).tolist())


def _certify_point_levels(labels: np.ndarray, j: int, levels: np.ndarray) -> None:
    """One BFS from point 0 over the class-j pairs: each point must lie at
    the level of its class."""
    dist = _bfs_levels(len(labels), lambda rows, cols: labels[np.ix_(rows, cols)] == j)
    bad = np.flatnonzero(dist != levels[labels[0]])
    if bad.size:
        x, c = int(bad[0]), int(labels[0, bad[0]])
        raise MethodsDisagreeError(f"class-{j} BFS from point 0 reaches point {x} at level "
                                   f"{dist[x]}, but its class {c} has index level {levels[c]}")


def _detector(side: _Side, j: int, order, separated: bool, evidence: dict) -> PolyVerdict:
    """A detector's verdict: no path refutes; a path certifies its ordering
    when the column head is separated, else is the candidate ordering."""
    if order is None:
        return PolyVerdict(side.kind, j, NOT_POLYNOMIAL, reason=side.not_path, evidence=evidence)
    if not separated:
        evidence["candidate_ordering"] = list(order)
        return PolyVerdict(side.kind, j, INCONCLUSIVE, reason=side.unseparated, evidence=evidence)
    return PolyVerdict(side.kind, j, POLYNOMIAL, ordering=order, evidence=evidence)


def p_polynomial_ordering(
    params: SchemeParameters,
    j: int,
    rel: RelationPartition | None = None,
    tol: float = DEFAULT_TOL,
) -> PolyVerdict:
    """Is the scheme P-polynomial with respect to class j?

    Both modes read the BFS levels, from class 0, of the index graph of p
    for class j.  Explicit mode (rel given, a partition that passed
    validate_scheme): a class's level is the class-j distance of its pairs,
    so the graph must be connected with diameter d, and the levels order
    the classes; one BFS from point 0 certifies them (MethodsDisagreeError
    otherwise).  Parametric mode: the index graph must be a path from 0.

    A failed structural test refutes the ordering outright.  A passed test
    certifies it only under the separation hypothesis (degree distinct
    from the other eigenvalues of the class); otherwise the verdict is
    inconclusive with the candidate ordering recorded.
    """
    separated = _head_separated(_column(_P, params, j), tol)
    # Intersection numbers are integers: a link is a nonzero one.
    levels = _index_levels(params.p, j, 0)
    evidence = {"mode": "parametric"}
    if rel is not None:
        _certify_point_levels(rel.labels, j, levels)
        connected, diameter = levels.min() >= 0, int(levels.max())
        evidence = {"mode": "explicit", "diameter": diameter if connected else None}
        if not connected or diameter != params.d:
            reason = (f"relation graph has diameter {diameter}, not {params.d}" if connected
                      else "relation graph disconnected")
            return PolyVerdict("P", j, NOT_POLYNOMIAL, reason=reason, evidence=evidence)
    return _detector(_P, j, _path_ordering(levels, j), separated, evidence)


def q_polynomial_ordering(
    params: SchemeParameters,
    j: int,
    tol: float = DEFAULT_TOL,
    sphere: SphericalSet | None = None,
) -> PolyVerdict:
    """Is the scheme Q-polynomial with respect to eigenspace j?

    Primary route: the Krein-number index graph of eigenspace j, walked by
    the P detector's BFS (nonzero threshold = tol), must be a path starting
    0, j; a Krein number above tol but within its krein_allowance may be
    a rounded zero, and raises ToleranceAmbiguityError.  A non-path
    refutes; a path certifies only when the multiplicity is separated from
    the other column values, else the verdict is inconclusive.  When
    sphere, the eigenspace's embedding from from_idempotent, is given and
    the separation hypothesis holds, its Schur-diameter is computed as a
    cross-check and must agree with the Krein route; disagreement is a
    hard error.
    """
    separated = _head_separated(_column(_Q, params, j), tol)
    # The scale of q[h, k] = q_jh^k is (1/n) sum_u |P[k, u] Q[u, j] Q[u, h]|.
    q, Q = params.krein[j], params.Q
    allowance = krein_allowance((np.abs(params.P * Q[:, j]) @ np.abs(Q)).T / params.n)
    band = (np.abs(q) > tol) & (np.abs(q) <= allowance)
    if band.any():
        h, k = np.argwhere(band)[0].tolist()
        raise ToleranceAmbiguityError(
            f"Krein number q_{{{j},{h}}}^{{{k}}} = {float(q[h, k])!r} is above tol {tol!r} but "
            f"within its rounding allowance {float(allowance[h, k])!r}; adjust the tolerance")
    order = _path_ordering(_index_levels(params.krein, j, tol), j)
    evidence: dict = {"mode": "krein"}
    if sphere is not None and separated:
        sd = schur_diameter(sphere)
        evidence["schur_diameter"] = sd
        if (sd == params.d) != (order is not None):
            raise MethodsDisagreeError(
                f"Krein route says {NOT_POLYNOMIAL if order is None else POLYNOMIAL} "
                f"for eigenspace {j} but the Schur-diameter is {sd} with d = {params.d}")
    return _detector(_Q, j, order, separated, evidence)


def _size_condition(side: _Side, params, j: int, sizes, bound, tol: float) -> PolyVerdict:
    """n against bound(sizes[j], d - 1), in exact integers, once column j
    is separated and its head is sizes[j] within integrality_allowance."""
    col = _column(side, params, j)
    if not _head_separated(col, tol):
        return PolyVerdict(side.kind, j, INCONCLUSIVE, reason=side.unseparated)
    size, n, t = sizes[j], params.n, params.d - 1
    if abs(col[0] - size) > integrality_allowance(size):
        raise ValueError(f"non-integral {side.size} {col[0]} for {side.index} {j}")
    b = bound(size, t)
    status, relation = (POLYNOMIAL, ">") if n > b else (INCONCLUSIVE, "<=")
    return PolyVerdict(side.kind, j, status, evidence={"n": n, side.size: size, "bound": b},
                       reason=f"n = {n} {relation} {side.bound}({size}, {t}) = {b}")


def check_p_large(
    params: SchemeParameters,
    j: int,
    direct: PolyVerdict | None = None,
    tol: float = DEFAULT_TOL,
) -> PolyVerdict:
    """Size-based sufficient condition: n beyond the degree/diameter bound
    M(k_j, d-1) forces P-polynomiality with respect to class j.

    The bound comparison is exact integer arithmetic.  When direct, the
    verdict of p_polynomial_ordering for class j, is given and the condition
    holds, the detector must agree, and its ordering is attached;
    disagreement is a hard error.
    """
    verdict = _size_condition(_P, params, j, params.degrees, moore_bound, tol)
    if direct is None or verdict.status != POLYNOMIAL:
        return verdict
    if (direct.kind, direct.base_index) != ("P", j):
        raise ValueError(f"detector verdict for {direct.kind} {direct.base_index}, not P {j}")
    if direct.status != POLYNOMIAL:
        raise MethodsDisagreeError(
            f"size condition n = {params.n} > {verdict.evidence['bound']} holds for class {j} "
            f"but the direct detector says {direct.status}: {direct.reason}")
    verdict.ordering = direct.ordering
    verdict.evidence["confirmed_by"] = direct.evidence["mode"]
    return verdict


def check_q_large(params: SchemeParameters, j: int, tol: float = DEFAULT_TOL) -> PolyVerdict:
    """Size-based sufficient condition: n beyond the dimension/distance
    bound N(m_j, d-1) forces Q-polynomiality with respect to eigenspace j.
    Exact integer comparison."""
    return _size_condition(_Q, params, j, params.multiplicities, absolute_bound, tol)


def _product_formula(side: _Side, params, j: int, other, tol: float) -> PolyVerdict:
    """Product formula for index j against the other eigenmatrix: column
    j mutually distinct, and a witness l with lhs(h) = -other[l, h] for all
    h >= 1, each to scaled_allowance(tol, |lhs(h)|)."""
    col = _column(side, params, j)
    if not np.all(np.diff(np.sort(col)) > tol):
        return PolyVerdict(side.kind, j, INCONCLUSIVE, reason=side.not_distinct)
    lhs = k_factors(lagrange_denominators(col))
    matches = [l for l in range(params.d + 1)
               if all(abs(x + other[l, h]) <= scaled_allowance(tol, abs(x))
                      for h, x in enumerate(lhs, 1))]
    evidence = {"lhs": lhs, "matches": matches}
    if not matches:
        return PolyVerdict(side.kind, j, NOT_POLYNOMIAL, reason=side.no_match, evidence=evidence)
    evidence["witness_l"] = matches[0]
    if len(matches) > 1:
        evidence["anomaly"] = "multiple matching indices"
    return PolyVerdict(side.kind, j, POLYNOMIAL, evidence=evidence)


def check_product_formula_P(params: SchemeParameters, j: int, tol: float = DEFAULT_TOL) -> PolyVerdict:
    """Product-formula characterization of P-polynomiality for class j.

    Needs all eigenvalues of class j mutually distinct; then the scheme is
    P-polynomial with respect to class j exactly when some eigenspace index
    l matches, and class l is last in the ordering.
    """
    return _product_formula(_P, params, j, params.Q, tol)


def check_product_formula_Q(params: SchemeParameters, j: int, tol: float = DEFAULT_TOL) -> PolyVerdict:
    """Dual product formula: eigenspace j is Q-polynomial exactly when some
    class index l matches against the first eigenmatrix, and eigenspace l
    is last in the ordering."""
    return _product_formula(_Q, params, j, params.P, tol)


@dataclass(frozen=True)
class SchemeAnalysis:
    """Every verdict and report of one scheme.

    verdicts holds six per class j = 1..d, in this order: P detector,
    P size condition, P product formula, Q detector, Q size condition,
    Q product formula.  reports holds the sphere report of each eigenspace
    1..d; it is empty for a parametric scheme, which has no points.
    """

    params: SchemeParameters
    verdicts: list[PolyVerdict]
    reports: list[TheoremReport]


def analyze_scheme(
    scheme,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> SchemeAnalysis:
    """Run each check on one scheme, computing each quantity once.

    scheme is a RelationPartition (explicit route: the dense limit is
    checked before any n x n work, then the axioms, the eigenmatrices of
    their intersection numbers, as on the parametric route, then P
    certified exactly as a character table when it is integral, and the
    idempotents of an eigensolve checked against Q and P otherwise; each
    eigenspace's sphere embedding, Q's column read as the class values of
    its Gram, is built once, one at a time, and feeds both the
    Schur-diameter cross-check and the sphere report) or the (p, n) pair
    returned by parse_intersection_tensor (parametric route).  The P size
    condition is confirmed against the explicit detector's verdict, which
    runs once per class.
    """
    if isinstance(scheme, RelationPartition):
        rel = scheme
        check_dense_limit(rel.n, max_dense)
        params = eigenmatrices(validate_scheme(rel, max_dense), rel.n, tol)
        table = character_table(params)
        if table is None:
            idempotents(rel, params, tol, max_dense)
    else:
        rel = table = None
        params = parametric_parameters(*scheme, tol)
    verdicts: list[PolyVerdict] = []
    reports: list[TheoremReport] = []
    for j in range(1, params.d + 1):
        sph = None
        if rel is not None:
            try:
                sph = from_idempotent(params, table, j, tol)
            except GramError as exc:
                reports.append(TheoremReport(
                    f"sphere(eigenspace={j})", "sphere-eigenvalue", HYPOTHESIS_NOT_MET, tol,
                    {"summary": f"embedding of eigenspace {j} degenerate: {exc}"}))
        direct = p_polynomial_ordering(params, j, rel, tol)
        verdicts += [
            direct,
            check_p_large(params, j, direct if rel is not None else None, tol),
            check_product_formula_P(params, j, tol),
            q_polynomial_ordering(params, j, tol, sphere=sph),
            check_q_large(params, j, tol),
            check_product_formula_Q(params, j, tol),
        ]
        if sph is not None:
            reports.append(verify_sphere_theorem(sph, route="size"))
    return SchemeAnalysis(params, verdicts, reports)
