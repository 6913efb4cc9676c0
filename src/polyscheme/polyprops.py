"""Detection of P- and Q-polynomial structure in association schemes.

Three routes per side: a direct detector (distance partition of one
relation graph, or the path shape of the Krein-number index graph), a
size-based sufficient condition against the degree/diameter or dimension/
distance bound, and the product-formula characterization that pins down
the last class of the ordering.  analyze_scheme runs all of them, and the
sphere check of each eigenspace, once per scheme.

Verdicts are three-valued; the size conditions can only ever say
"polynomial" or "inconclusive", never "not_polynomial".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GramError, MethodsDisagreeError
from .graphs import adjacency_distances, moore_bound
from .numerics import DEFAULT_MAX_DENSE, DEFAULT_TOL, check_dense_limit, k_factor
from .reports import HYPOTHESIS_NOT_MET, TheoremReport
from .schemes import (
    DEFAULT_SEEDS,
    RelationPartition,
    SchemeParameters,
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


def _head_separated(col, tol: float) -> bool:
    return bool(np.all(np.abs(col[1:] - col[0]) > tol))


def _mutually_distinct(col, tol: float) -> bool:
    svals = np.sort(col)
    return bool(np.all(np.diff(svals) > tol))


def _walk_index_path(adjacency: list[set[int]], d: int, j: int) -> tuple[int, ...] | None:
    """Ordering of 0..d if the index graph is a path starting 0, j."""
    if adjacency[0] != {j}:
        return None
    order = [0, j]
    seen = {0, j}
    prev, cur = 0, j
    while len(order) < d + 1:
        fresh = adjacency[cur] - {prev}
        if len(fresh) != 1:
            return None
        nxt = fresh.pop()
        if nxt in seen:
            return None
        order.append(nxt)
        seen.add(nxt)
        prev, cur = cur, nxt
    if adjacency[order[-1]] - {order[-2]}:
        return None
    return tuple(order)


def _tensor_index_adjacency(tensor: np.ndarray, j: int, threshold: float) -> list[set[int]]:
    """Index graph of slice j: h and i linked when the (j, h)->i structure
    constant is nonzero (in either orientation)."""
    d = tensor.shape[0] - 1
    adj: list[set[int]] = [set() for _ in range(d + 1)]
    for h in range(d + 1):
        for i in range(h + 1, d + 1):
            if abs(tensor[j, h, i]) > threshold or abs(tensor[j, i, h]) > threshold:
                adj[h].add(i)
                adj[i].add(h)
    return adj


def p_polynomial_ordering(
    params: SchemeParameters,
    j: int,
    rel: RelationPartition | None = None,
    tol: float = DEFAULT_TOL,
) -> PolyVerdict:
    """Is the scheme P-polynomial with respect to class j?

    Explicit mode (rel given, a partition that passed validate_scheme): the
    graph of class j must be connected with diameter d and distance classes
    equal to relation classes, which then provides the ordering.  Parametric
    mode: the intersection-number index graph of class j must be a path
    from 0.

    A failed structural test refutes the ordering outright.  A passed test
    certifies it only under the separation hypothesis (degree distinct
    from the other eigenvalues of the class); otherwise the verdict is
    inconclusive with the candidate ordering recorded.
    """
    d = params.d
    if not 1 <= j <= d:
        raise ValueError(f"class {j} outside 1..{d}")
    separated = _head_separated(params.P[:, j], tol)
    if rel is not None:
        dd = adjacency_distances(rel.labels == j)
        diameter, connected = dd.diameter, dd.is_connected()
        evidence = {"mode": "explicit", "diameter": diameter if connected else None}
        if not connected:
            return PolyVerdict("P", j, NOT_POLYNOMIAL, reason="relation graph disconnected",
                               evidence=evidence)
        if diameter != d:
            return PolyVerdict("P", j, NOT_POLYNOMIAL,
                               reason=f"relation graph has diameter {diameter}, not {d}",
                               evidence=evidence)
        order = []
        for t in range(d + 1):
            found = np.unique(rel.labels[dd.relation(t)])
            if found.size != 1:
                return PolyVerdict("P", j, NOT_POLYNOMIAL,
                                   reason=f"distance class {t} mixes relation classes {found.tolist()}",
                                   evidence=evidence)
            order.append(int(found[0]))
        if sorted(order) != list(range(d + 1)):
            return PolyVerdict("P", j, NOT_POLYNOMIAL,
                               reason="distance classes do not exhaust the relation classes",
                               evidence=evidence)
        order = tuple(order)
    else:
        adj = _tensor_index_adjacency(params.p.astype(float), j, 0.5)
        order = _walk_index_path(adj, d, j)
        evidence = {"mode": "parametric"}
        if order is None:
            return PolyVerdict("P", j, NOT_POLYNOMIAL,
                               reason="intersection-number index graph is not a path from 0",
                               evidence=evidence)
    if not separated:
        evidence["candidate_ordering"] = list(order)
        return PolyVerdict("P", j, INCONCLUSIVE,
                           reason="degree not separated from the other eigenvalues",
                           evidence=evidence)
    return PolyVerdict("P", j, POLYNOMIAL, ordering=order, evidence=evidence)


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
    d = params.d
    if not 1 <= j <= d:
        raise ValueError(f"class {j} outside 1..{d}")
    if not _head_separated(params.P[:, j], tol):
        return PolyVerdict("P", j, INCONCLUSIVE, reason="degree not separated from the other eigenvalues")
    kj = params.degrees[j]
    bound = moore_bound(kj, d - 1)
    evidence = {"n": params.n, "degree": kj, "bound": bound}
    if params.n <= bound:
        return PolyVerdict("P", j, INCONCLUSIVE,
                           reason=f"n = {params.n} <= M({kj}, {d - 1}) = {bound}",
                           evidence=evidence)
    ordering = None
    if direct is not None:
        if (direct.kind, direct.base_index) != ("P", j):
            raise ValueError(f"detector verdict for {direct.kind} {direct.base_index}, not P {j}")
        if direct.status != POLYNOMIAL:
            raise MethodsDisagreeError(
                f"size condition n = {params.n} > {bound} holds for class {j} but the "
                f"direct detector says {direct.status}: {direct.reason}")
        ordering = direct.ordering
        evidence["confirmed_by"] = direct.evidence["mode"]
    return PolyVerdict("P", j, POLYNOMIAL, ordering=ordering,
                       reason=f"n = {params.n} > M({kj}, {d - 1}) = {bound}",
                       evidence=evidence)


def _product_formula(side_values: np.ndarray, other_matrix: np.ndarray, d: int, tol: float):
    """Shared product-formula engine.

    side_values is the length-(d+1) value column of the base index; a
    witness l must satisfy lhs(h) = -other_matrix[l, h] for all h >= 1.
    """
    lhs = [k_factor(side_values, h) for h in range(1, d + 1)]
    matches = []
    for cand in range(d + 1):
        if all(abs(lhs[h - 1] + other_matrix[cand, h]) <= tol for h in range(1, d + 1)):
            matches.append(cand)
    return lhs, matches


def check_product_formula_P(params: SchemeParameters, j: int, tol: float = DEFAULT_TOL) -> PolyVerdict:
    """Product-formula characterization of P-polynomiality for class j.

    Needs all eigenvalues of class j mutually distinct; then the scheme is
    P-polynomial with respect to class j exactly when some eigenspace index
    l matches, and class l is last in the ordering.
    """
    d = params.d
    if not 1 <= j <= d:
        raise ValueError(f"class {j} outside 1..{d}")
    col = params.P[:, j]
    if not _mutually_distinct(col, tol):
        return PolyVerdict("P", j, INCONCLUSIVE, reason="eigenvalues of the class are not mutually distinct")
    lhs, matches = _product_formula(col, params.Q, d, tol)
    evidence = {"lhs": lhs, "matches": matches}
    if not matches:
        return PolyVerdict("P", j, NOT_POLYNOMIAL, reason="no eigenspace index matches the product formula",
                           evidence=evidence)
    evidence["witness_l"] = matches[0]
    if len(matches) > 1:
        evidence["anomaly"] = "multiple matching indices"
    return PolyVerdict("P", j, POLYNOMIAL, evidence=evidence)


def q_polynomial_ordering(
    params: SchemeParameters,
    j: int,
    tol: float = DEFAULT_TOL,
    sphere: SphericalSet | None = None,
) -> PolyVerdict:
    """Is the scheme Q-polynomial with respect to eigenspace j?

    Primary route: the Krein-number index graph of eigenspace j must be a
    path from 0 (nonzero threshold = tol).  A non-path refutes; a path
    certifies only when the multiplicity is separated from the other
    column values, else the verdict is inconclusive.  When sphere, the
    eigenspace's embedding from from_idempotent, is given and the
    separation hypothesis holds, its Schur-diameter is computed as a
    cross-check and must agree with the Krein route; disagreement is a
    hard error.
    """
    d = params.d
    if not 1 <= j <= d:
        raise ValueError(f"eigenspace {j} outside 1..{d}")
    separated = _head_separated(params.Q[:, j], tol)
    adj = _tensor_index_adjacency(params.krein, j, tol)
    order = _walk_index_path(adj, d, j)
    evidence: dict = {"mode": "krein"}
    if sphere is not None and separated:
        sd = schur_diameter(sphere, tol)
        evidence["schur_diameter"] = sd
        if (sd == d) != (order is not None):
            raise MethodsDisagreeError(
                f"Krein route says {NOT_POLYNOMIAL if order is None else POLYNOMIAL} "
                f"for eigenspace {j} but the Schur-diameter is {sd} with d = {d}")
    if order is None:
        return PolyVerdict("Q", j, NOT_POLYNOMIAL,
                           reason="Krein-number index graph is not a path from 0",
                           evidence=evidence)
    if not separated:
        evidence["candidate_ordering"] = list(order)
        return PolyVerdict("Q", j, INCONCLUSIVE,
                           reason="multiplicity not separated from the other column values",
                           evidence=evidence)
    return PolyVerdict("Q", j, POLYNOMIAL, ordering=order, evidence=evidence)


def check_q_large(params: SchemeParameters, j: int, tol: float = DEFAULT_TOL) -> PolyVerdict:
    """Size-based sufficient condition: n beyond the dimension/distance
    bound N(m_j, d-1) forces Q-polynomiality with respect to eigenspace j.
    Exact integer comparison."""
    d = params.d
    if not 1 <= j <= d:
        raise ValueError(f"eigenspace {j} outside 1..{d}")
    col = params.Q[:, j]
    if not _head_separated(col, tol):
        return PolyVerdict("Q", j, INCONCLUSIVE,
                           reason="multiplicity not separated from the other column values")
    mj = params.multiplicities[j]
    if abs(col[0] - mj) > 1e-6 * max(1.0, mj):
        raise ValueError(f"non-integral multiplicity {col[0]} for eigenspace {j}")
    bound = absolute_bound(mj, d - 1)
    evidence = {"n": params.n, "multiplicity": mj, "bound": bound}
    if params.n <= bound:
        return PolyVerdict("Q", j, INCONCLUSIVE,
                           reason=f"n = {params.n} <= N({mj}, {d - 1}) = {bound}",
                           evidence=evidence)
    return PolyVerdict("Q", j, POLYNOMIAL,
                       reason=f"n = {params.n} > N({mj}, {d - 1}) = {bound}",
                       evidence=evidence)


def check_product_formula_Q(params: SchemeParameters, j: int, tol: float = DEFAULT_TOL) -> PolyVerdict:
    """Dual product formula: eigenspace j is Q-polynomial exactly when some
    class index l matches against the first eigenmatrix, and eigenspace l
    is last in the ordering."""
    d = params.d
    if not 1 <= j <= d:
        raise ValueError(f"eigenspace {j} outside 1..{d}")
    col = params.Q[:, j]
    if not _mutually_distinct(col, tol):
        return PolyVerdict("Q", j, INCONCLUSIVE,
                           reason="column values of the eigenspace are not mutually distinct")
    lhs, matches = _product_formula(col, params.P, d, tol)
    evidence = {"lhs": lhs, "matches": matches}
    if not matches:
        return PolyVerdict("Q", j, NOT_POLYNOMIAL, reason="no class index matches the product formula",
                           evidence=evidence)
    evidence["witness_l"] = matches[0]
    if len(matches) > 1:
        evidence["anomaly"] = "multiple matching indices"
    return PolyVerdict("Q", j, POLYNOMIAL, evidence=evidence)


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
    seeds=DEFAULT_SEEDS,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> SchemeAnalysis:
    """Run each check on one scheme, computing each quantity once.

    scheme is a RelationPartition (explicit route: the dense limit is
    checked before any n x n work, then the axioms, idempotents and
    eigenmatrices; each eigenspace's sphere embedding is built once from
    its eigenvector block, one at a time, and feeds both the Schur-diameter
    cross-check and the sphere report) or
    the (p, n) pair returned by parse_intersection_tensor (parametric
    route).  The P size condition is confirmed against the explicit
    detector's verdict, which runs once per class.
    """
    if isinstance(scheme, RelationPartition):
        rel = scheme
        check_dense_limit(rel.n, max_dense)
        p = validate_scheme(rel, max_dense)
        idems = idempotents(rel, tol, seeds, max_dense)
        # No later stage reads the cached class matrices; drop them before
        # the sphere checks so that their n x n work does not stack on them.
        vars(rel).pop("class_matrices")
        params = eigenmatrices(rel, idems, tol, p=p)
    else:
        rel = idems = None
        params = parametric_parameters(*scheme, tol, seeds)
    verdicts: list[PolyVerdict] = []
    reports: list[TheoremReport] = []
    for j in range(1, params.d + 1):
        sph = None
        if idems is not None:
            try:
                sph = from_idempotent(params, idems, j, tol)
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
            reports.append(verify_sphere_theorem(sph, tol, route="size"))
    return SchemeAnalysis(params, verdicts, reports)
