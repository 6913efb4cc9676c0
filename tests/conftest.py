"""Shared catalog: the worked graphs and schemes every suite draws from.

Objects are built once per session and cached; tests must not mutate them.
"""

import dataclasses
import functools
import math
from collections import deque, namedtuple

import numpy as np
import pytest

from polyscheme import errors
from polyscheme.errors import (
    DegenerateElementError,
    GramError,
    SchemeAxiomError,
    ToleranceAmbiguityError,
)
from polyscheme.generators import FamilySpec, build_graph, build_scheme
from polyscheme.numerics import DEFAULT_TOL, cluster_values, rank_tol
from polyscheme.schemes import (
    DEFAULT_SEEDS,
    character_table,
    eigenmatrices,
    idempotents,
    validate_scheme,
)
from polyscheme.spherical import SCHUR_SEEDS, from_idempotent

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

AnalyzedScheme = namedtuple("AnalyzedScheme", "name rel p blocks params table")


def max_abs_diff(x, y) -> float:
    """Largest entrywise difference of two matrices; neither is
    symmetrized, so a transpose does not pass."""
    return float(np.max(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))))


def fail_after_header(monkeypatch):
    """Make the line reader that every parser reads through yield the lines
    up to the header, the first that keeps a token, and then fail, so that
    reading any row after it raises AssertionError."""
    split = errors._split_lines

    def header_only(text):
        for raw in split(text):
            yield raw
            if raw.split("#", 1)[0].split():
                raise AssertionError("a row was read after the header")

    monkeypatch.setattr(errors, "_split_lines", header_only)


def projectors(blocks):
    """The dense idempotents E_j = U_j U_j^T of the eigenvector blocks that
    schemes.idempotents returns."""
    return [u @ u.T for u in blocks]


def corrupt_eigenspace(monkeypatch, scheme, j, corrupt):
    """Make np.linalg.eigh hand schemes.idempotents, on scheme, the columns
    of eigenspace j as corrupt(columns) returns them.  The generic element
    gathers its coefficients c through the labels, so c is read at one
    pair of each class, and eigenspace j's columns are those whose
    eigenvalue is (P c)[j]."""
    eigh = np.linalg.eigh
    pairs = [np.argwhere(scheme.rel.labels == i)[0] for i in range(scheme.rel.d + 1)]

    def corrupted(a):
        w, vecs = eigh(a)
        coeffs = np.array([a[x, y] for x, y in pairs])
        cols = np.abs(w - scheme.params.P[j] @ coeffs) <= 1e-6
        vecs[:, cols] = corrupt(vecs[:, cols])
        return w, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)


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


def neighbour_lists(g):
    """Each vertex's neighbours, read off the graph's edge array."""
    neighbors = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


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
    neighbors = neighbour_lists(g)
    for u, v in g.edges.tolist():
        dist = {u: 0}
        queue = deque([u])
        found = None
        while queue:
            x = queue.popleft()
            if best is not None and dist[x] + 1 >= best:
                break
            for y in neighbors[x]:
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


def poly_from_roots(roots, scale: float = 1.0) -> list[float]:
    """Coefficients, constant term first, of scale * prod (x - r)."""
    coeffs = [1.0]
    for r in roots:
        nxt = [0.0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= r * c
            nxt[i + 1] += c
        coeffs = nxt
    return [scale * c for c in coeffs]


def eval_matrix_poly_reference(coeffs, m):
    """Oracle for numerics.eval_matrix_poly: Horner's rule with a new array
    per step."""
    cs = [float(c) for c in coeffs]
    acc = np.zeros(np.shape(m))
    for c in reversed(cs):
        acc = acc * m + c
    return acc


def schur_diameter_reference(sph, seeds=SCHUR_SEEDS):
    """The dense Schur-diameter search from degree 0: every trial of every
    degree t <= s is one eigensolve of its entrywise polynomial, expanded
    into monomial coefficients, with ranks at the set's tolerance.  The
    degree-s trial is the normalized annihilator prod (x - v)/(1 - v) of
    the off-diagonal values v."""
    for t in range(sph.s + 1):
        trials = []
        for seed in seeds:
            coeffs = np.random.default_rng([seed, t]).standard_normal(t + 1)
            trials.append(coeffs / np.linalg.norm(coeffs))
        if t == sph.s:
            roots = sph.values[1:]
            trials.append(poly_from_roots(roots, 1.0 / math.prod(1.0 - v for v in roots)))
        if any(rank_tol(eval_matrix_poly_reference(c, sph.gram), sph.tolerance) == sph.n
               for c in trials):
            return t
    return None


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


def tensor_index_adjacency_reference(tensor, j, threshold):
    """Oracle for the index graph of polyprops._index_levels: h and i
    linked when the (j, h)->i structure constant exceeds threshold in
    absolute value (in either orientation), as adjacency sets."""
    d = tensor.shape[0] - 1
    adj = [set() for _ in range(d + 1)]
    for h in range(d + 1):
        for i in range(h + 1, d + 1):
            if abs(tensor[j, h, i]) > threshold or abs(tensor[j, i, h]) > threshold:
                adj[h].add(i)
                adj[i].add(h)
    return adj


def walk_index_path_reference(adjacency, d, j):
    """Oracle for polyprops._path_ordering: walk the index graph from 0
    through j, one fresh neighbour at a time; the ordering of 0..d if the
    graph is a path starting 0, j, else None."""
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


@functools.cache
def catalog_graph(name):
    return build_graph(GRAPH_SPECS[name])


@functools.cache
def analyzed_scheme(name):
    rel = build_scheme(SCHEME_SPECS[name])
    p = validate_scheme(rel)
    params = eigenmatrices(p, rel.n)
    return AnalyzedScheme(name, rel, p, idempotents(rel, params), params, character_table(params))


def dense_sphere(rel, sph):
    """The scheme sphere sph of the partition rel with its Gram and labels
    gathered through rel's labels, as a standalone Gram holds them: the
    dense oracle of the checks that read the sphere off its algebra."""
    algebra = sph.algebra
    gram = algebra.class_values[rel.labels]
    np.fill_diagonal(gram, 1.0)
    labels = algebra.classes[rel.labels]
    for a in (gram, labels):
        a.setflags(write=False)
    return dataclasses.replace(sph, gram=gram, labels=labels)


def sphere_of(scheme, j):
    """The eigenspace-j embedding that analyze_scheme hands to
    q_polynomial_ordering, or None when it is degenerate."""
    try:
        return from_idempotent(scheme.params, scheme.table, j)
    except GramError:
        return None


@pytest.fixture(params=sorted(GRAPH_SPECS))
def named_graph(request):
    return request.param, catalog_graph(request.param)


@pytest.fixture(params=sorted(SCHEME_SPECS))
def scheme_case(request):
    return analyzed_scheme(request.param)
