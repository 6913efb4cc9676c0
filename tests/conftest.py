"""Shared catalog: the worked graphs and schemes every suite draws from.

Objects are built once per session and cached; tests must not mutate them.
"""

import functools
from collections import deque, namedtuple

import numpy as np
import pytest

from polyscheme.errors import (
    DegenerateElementError,
    GramError,
    SchemeAxiomError,
    ToleranceAmbiguityError,
)
from polyscheme.generators import FamilySpec, build_graph, build_scheme
from polyscheme.numerics import DEFAULT_TOL, SymMatrix, cluster_values
from polyscheme.schemes import DEFAULT_SEEDS, eigenmatrices, idempotents, validate_scheme
from polyscheme.spherical import from_idempotent

GRAPH_SPECS = {
    "complete4": FamilySpec("complete", (4,)),
    "cube": FamilySpec("hamming", (3, 2)),
    "cycle5": FamilySpec("cycle", (5,)),
    "cycle6": FamilySpec("cycle", (6,)),
    "hoffman-singleton": FamilySpec("hoffman-singleton"),
    "paley13": FamilySpec("paley", (13,)),
    "petersen": FamilySpec("petersen"),
    "triangular5": FamilySpec("johnson", (5, 2)),
}

SCHEME_SPECS = {
    "complete4": FamilySpec("complete", (4,)),
    "cube": FamilySpec("hamming", (3, 2)),
    "cycle5": FamilySpec("cycle", (5,)),
    "cycle6": FamilySpec("cycle", (6,)),
    "hamming33": FamilySpec("hamming", (3, 3)),
    "hoffman-singleton": FamilySpec("hoffman-singleton"),
    "johnson83": FamilySpec("johnson", (8, 3)),
    "paley13": FamilySpec("paley", (13,)),
    "petersen": FamilySpec("petersen"),
}

AnalyzedScheme = namedtuple("AnalyzedScheme", "name rel p idems params")


def max_abs_diff(x, y) -> float:
    """Largest entrywise difference of two matrices, each an array or a
    SymMatrix; neither is symmetrized, so a transpose does not pass."""
    def entries(m):
        return np.asarray(m.a if isinstance(m, SymMatrix) else m, dtype=float)
    return float(np.max(np.abs(entries(x) - entries(y))))


def projectors(idems):
    """The dense idempotents E_j = U_j U_j^T of a SchemeIdempotents."""
    return [u @ u.T for u in idems.blocks]


def same_evidence(a, b, key=""):
    """Report evidence equal up to 1e-9 in every float.  Summaries and
    witnesses may name labels or coordinates, so they are not compared."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-9
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            k == "summary" or same_evidence(a[k], b[k], k) for k in a)
    if isinstance(a, list) and key != "witness":
        return len(a) == len(b) and all(same_evidence(x, y, key) for x, y in zip(a, b))
    return key == "witness" or a == b


def bfs_distances_reference(neighbors, root):
    """Oracle for one row of graphs.distance_data: a Python BFS from root,
    with -1 for unreachable vertices."""
    dist = np.full(len(neighbors), -1, dtype=int)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def girth_reference(g):
    """Oracle for graphs.girth: per-edge BFS.  The shortest cycle through
    edge (u, v) is one longer than the shortest u-v path avoiding it."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        found = None
        while queue:
            x = queue.popleft()
            if best is not None and dist[x] + 1 >= best:
                break
            for y in g.neighbors[x]:
                if {x, y} == {u, v}:
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        found = dist[y]
                        queue.clear()
                        break
                    queue.append(y)
        if found is not None and (best is None or found + 1 < best):
            best = found + 1
    return best


def cluster_values_reference(raw, tol):
    """Oracle for numerics.cluster_values: one Python step per value."""
    arr = np.asarray(raw, dtype=float).ravel()
    order = np.argsort(-arr, kind="stable")
    svals = arr[order]
    groups = [[0]]
    for pos in range(1, svals.size):
        gap = svals[pos - 1] - svals[pos]
        if gap <= tol:
            groups[-1].append(pos)
        elif gap <= 2 * tol:
            raise ToleranceAmbiguityError(
                f"values {float(svals[pos])!r} and {float(svals[pos - 1])!r} are separated by "
                f"{float(gap)!r}, inside ({tol!r}, {2 * tol!r}]; adjust the tolerance"
            )
        else:
            groups.append([pos])
    values, counts = [], []
    labels = np.empty(arr.size, dtype=int)
    for gi, members in enumerate(groups):
        spread = svals[members[0]] - svals[members[-1]]
        if spread > tol:
            raise ToleranceAmbiguityError(
                f"cluster of {len(members)} values spreads over {float(spread)!r} > "
                f"tol {tol!r}; adjust the tolerance"
            )
        values.append(float(np.mean(svals[members])))
        counts.append(len(members))
        labels[order[members]] = gi
    return values, counts, labels


def validate_scheme_axiom_4_reference(rel):
    """Oracle for the axiom-4 part of schemes.validate_scheme: int64 class
    matrices and one class mask per (i, j, k)."""
    lab, d = rel.labels, rel.d
    adj = [(lab == i).astype(np.int64) for i in range(d + 1)]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i in range(d + 1):
        for j in range(i, d + 1):
            counts = adj[i] @ adj[j]
            for k in range(d + 1):
                mask = lab == k
                vals = counts[mask]
                first = int(vals[0])
                if np.any(vals != first):
                    pairs = np.argwhere(mask)
                    offender = pairs[np.nonzero(vals != first)[0][0]]
                    x1, y1 = (int(v) for v in pairs[0])
                    x2, y2 = (int(v) for v in offender)
                    raise SchemeAxiomError(
                        4,
                        f"not a scheme: p_{{{i},{j}}}^{{{k}}} differs between pairs "
                        f"({x1}, {y1}) and ({x2}, {y2}): {first} vs {int(counts[x2, y2])}",
                        [(x1, y1), (x2, y2)])
                p[i, j, k] = first
                p[j, i, k] = first
    return p


IdempotentsReference = namedtuple("IdempotentsReference", "projectors P Q multiplicities")


def _canonical_order_reference(projs, mults, a1, tol):
    """Identity-eigenspace projector first, then decreasing eigenvalue on
    class 1, ties broken by increasing rank."""
    n = a1.shape[0]
    ones = np.ones(n)
    weights = [float(ones @ e @ ones) for e in projs]
    j0 = int(np.argmax(weights))
    rest = []
    for idx in range(len(projs)):
        if idx == j0:
            continue
        lam = float(np.tensordot(a1, projs[idx]) / mults[idx])
        rest.append((round(lam / max(tol, 1e-12)), mults[idx], idx))
    rest.sort(key=lambda t: (-t[0], t[1]))
    return [j0] + [idx for _, _, idx in rest]


def idempotents_reference(rel, tol=DEFAULT_TOL, seeds=DEFAULT_SEEDS):
    """Oracle for schemes.idempotents and schemes.eigenmatrices: dense
    projectors E_j checked as scalars on every class by (d+1)^2 products
    A_i E_j, multiplicities from traces, P[j, i] = <A_i, E_j>/m_j and
    Q[j, i] = n E_i at the first pair of class j."""
    n, d = rel.n, rel.d
    adj = [rel.adjacency(i) for i in range(d + 1)]
    for seed in seeds:
        coeffs = np.random.default_rng(seed).uniform(1.0, 2.0, d + 1)
        generic = sum(c * a for c, a in zip(coeffs, adj))
        w, vecs = np.linalg.eigh((generic + generic.T) / 2.0)
        try:
            _, counts, labels = cluster_values(w, tol)
        except ToleranceAmbiguityError:
            continue
        if len(counts) != d + 1:
            continue
        projs = []
        for ci in range(len(counts)):
            cols = vecs[:, labels == ci]
            projs.append(cols @ cols.T)
        mults = [int(round(np.trace(e))) for e in projs]
        scalar_resid = 0.0
        for e, m in zip(projs, mults):
            for a in adj:
                lam = float(np.tensordot(a, e)) / m
                scalar_resid = max(scalar_resid, float(np.max(np.abs(a @ e - lam * e))))
        if scalar_resid > 100 * tol * max(1.0, n):
            continue
        order = _canonical_order_reference(projs, mults, adj[1], tol)
        projs = [projs[idx] for idx in order]
        mults = [mults[idx] for idx in order]
        pm = np.array([[float(np.tensordot(a, e)) / m for a in adj]
                       for e, m in zip(projs, mults)])
        reps = [tuple(int(v) for v in np.argwhere(rel.labels == j)[0]) for j in range(d + 1)]
        qm = np.array([[n * e[x, y] for e in projs] for x, y in reps])
        return IdempotentsReference(projs, pm, qm, mults)
    raise DegenerateElementError(f"generic element degenerate for every seed in {tuple(seeds)}")


def krein_trace_reference(projs, mults):
    """Oracle for schemes.krein_parameters: the structure constants of the
    dense idempotents under the entrywise product, by trace inner products,
    q_ij^k = n <E_i o E_j, E_k> / m_k."""
    n, d = len(projs[0]), len(projs) - 1
    q = np.empty((d + 1, d + 1, d + 1))
    for i in range(d + 1):
        for j in range(i, d + 1):
            had = projs[i] * projs[j]
            for k in range(d + 1):
                q[i, j, k] = q[j, i, k] = n * float(np.tensordot(had, projs[k])) / mults[k]
    return q


@functools.cache
def catalog_graph(name):
    return build_graph(GRAPH_SPECS[name])


@functools.cache
def analyzed_scheme(name):
    rel = build_scheme(SCHEME_SPECS[name])
    p = validate_scheme(rel)
    idems = idempotents(rel)
    params = eigenmatrices(rel, idems, p=p)
    return AnalyzedScheme(name, rel, p, idems, params)


def sphere_of(scheme, j):
    """The eigenspace-j embedding that analyze_scheme hands to
    q_polynomial_ordering, or None when it is degenerate."""
    try:
        return from_idempotent(scheme.params, scheme.idems, j)
    except GramError:
        return None


@pytest.fixture(params=sorted(GRAPH_SPECS))
def named_graph(request):
    return request.param, catalog_graph(request.param)


@pytest.fixture(params=sorted(SCHEME_SPECS))
def scheme_case(request):
    return analyzed_scheme(request.param)
