"""Regular-graph analysis: distances, girth, adjacency spectra and
eigenprojectors, the degree/diameter bound, and the forced-entry checks
for graphs with as few distinct eigenvalues as their diameter allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    GraphStructureError,
    IntRangeError,
    MethodsDisagreeError,
    ParseError,
    read_header,
    read_rows,
)
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    EigenClusters,
    check_dense_limit,
    cluster_spectrum,
    eigen_clusters,
    k_factors,
    lagrange_denominators,
)
from .reports import FAIL, HYPOTHESIS_NOT_MET, PASS, TheoremReport

UNREACHABLE = -1


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1, held as its read-only
    (m, 2) int64 edge array: u < v in every row, rows sorted."""

    n: int
    edges: np.ndarray

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """The graph of the (u, v) pairs in edges.  The first offending
        pair in their order is named: one out of range, a self-loop, or a
        repeat of an earlier pair in either orientation.

        When every pair is in range and no self-loop, and n^2 <= 16 m (so a
        bool per key is no larger than the m pairs as int64), the keys
        lo*n + hi are marked in a table of all n^2; m marks mean no repeat,
        and the marked keys in order are the sorted edges.  Any other input
        is sorted to find the first offender."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        # lo*n + hi is one to one on pairs in range; a pair out of range that
        # shares a key is named as out of range, or before the pair it shares.
        key = lo * n + hi
        if n * n <= 16 * len(pairs) and lo.min() >= 0 and hi.max() < n and (lo < hi).all():
            seen = np.zeros(n * n, dtype=bool)
            seen[key] = True
            if np.count_nonzero(seen) == len(pairs):
                return Graph._canonical(n, np.flatnonzero(seen))
        outside = (lo < 0) | (hi >= n)
        key, first = np.unique(key, return_index=True)
        repeat = np.bincount(first, minlength=len(pairs)) == 0
        bad = np.flatnonzero(outside | (lo == hi) | repeat)
        if bad.size:
            u, v = pairs[bad[0]].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}" if outside[bad[0]]
                             else f"self-loop at vertex {u}" if u == v
                             else f"duplicate edge ({u}, {v})")
        return Graph._canonical(n, key)

    @staticmethod
    def _canonical(n: int, key: np.ndarray) -> "Graph":
        """The graph of the sorted distinct keys lo*n + hi."""
        canonical = np.column_stack(np.divmod(key, n))
        canonical.setflags(write=False)
        return Graph(n, canonical)

    def adjacency_matrix(self, max_dense: int | None = DEFAULT_MAX_DENSE) -> np.ndarray:
        """The dense 0/1 adjacency matrix, built once and read-only; every
        call checks the limit."""
        check_dense_limit(self.n, max_dense)
        return self._adjacency

    @cached_property
    def _adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.edges, self.edges[:, ::-1]] = 1.0
        a.setflags(write=False)
        return a

    def regular_degree(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        degrees = np.bincount(self.edges.ravel(), minlength=self.n)
        return int(degrees[0]) if (degrees == degrees[0]).all() else None


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances, the girth, and the level loop's last level.

    dist marks disconnected pairs UNREACHABLE.  diameter is the largest
    finite distance, so every distance class 0..diameter is nonempty; girth
    is None for a forest.  far holds the sorted flat indices x*n + y of the
    pairs at distance diameter, and far_geodesics the number of shortest
    x-y paths of each, exactly while below 2**53.
    """

    dist: np.ndarray
    diameter: int
    girth: int | None
    far: np.ndarray
    far_geodesics: np.ndarray
    connected: bool

    def is_connected(self) -> bool:
        return self.connected


def distance_data(g: Graph, max_dense: int | None = DEFAULT_MAX_DENSE) -> DistanceData:
    """Distances, far-pair geodesic counts and girth of g, which may be disconnected.
    Graphs above max_dense are refused before anything n x n is allocated."""
    return adjacency_distances(g.adjacency_matrix(max_dense))


def _neighbour_table(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n x (max degree) table of each vertex's neighbours, and the mask of
    its padding: the rows of lower-degree vertices repeat the vertex."""
    n = len(adj)
    rows, cols = np.nonzero(adj)
    degrees = np.bincount(rows, minlength=n)
    table = np.repeat(np.arange(n), degrees.max(initial=0)).reshape(n, -1)
    starts = np.cumsum(degrees) - degrees
    table[rows, np.arange(rows.size) - starts[rows]] = cols
    return table, table == np.arange(n)[:, None]


def _gather_limit(n: int) -> int:
    """Largest frontier size times degree that a level gathers instead of
    multiplying.  Measured with one BLAS thread, a product costs 0.04 ns
    per multiply-add (n^3 of them), and a gather 60 ns per entry plus 12 us
    more fixed overhead; at most n^2 entries keep memory O(n^2)."""
    return min((n ** 3 - 300_000) // 1500, n * n)


def adjacency_distances(adj) -> DistanceData:
    """Distances from every root at once, one level per step, carrying the
    current level's geodesic counts: level t + 1 is the unreached part of
    G_t A, where G_t holds the counts of the level-t pairs.  A step is one
    BLAS product, or a gather over the neighbour table of the frontier when
    _gather_limit allows.  The last level, sorted, is handed over.

    The girth comes from the same loop.  A vertex at level t with a
    neighbour at level t closes an odd walk of length 2t + 1, and one with
    two geodesics closes a cycle of length at most 2t.  A root on a shortest
    cycle sees its exact length this way, so the first hit is the girth.
    """
    adj = np.asarray(adj, dtype=float)
    n = len(adj)
    degree = int(adj.sum(axis=1).max())
    table = None
    dist = np.full((n, n), UNREACHABLE)
    flat_dist = dist.reshape(-1)
    front, paths = np.arange(n) * (n + 1), np.ones(n)
    flat_dist[front] = 0
    gather_limit = _gather_limit(n)
    t, cycle, reached = 0, None, n
    while True:
        if front.size * degree < gather_limit:
            if table is None:
                table, padding = _neighbour_table(adj)
            w = front % n
            reach = (front - w)[:, None] + table[w]
            seen = flat_dist[reach]
            closes = cycle is None and np.any((seen == t) & ~padding[w])
            onward = seen == UNREACHABLE
            new, slot = np.unique(reach[onward], return_inverse=True)
            carried = np.broadcast_to(paths[:, None], reach.shape)[onward]
            counts = np.bincount(slot, weights=carried, minlength=new.size)
        else:
            level = np.zeros(n * n)
            level[front] = paths
            step = (level.reshape(n, n) @ adj).reshape(-1)
            closes = cycle is None and np.any(step[front] > 0)
            new = np.flatnonzero((step > 0) & (flat_dist == UNREACHABLE))
            counts = step[new]
        if closes:
            cycle = 2 * t + 1
        if not new.size:
            break
        t += 1
        flat_dist[new] = t
        reached += new.size
        if cycle is None and np.any(counts > 1):
            cycle = 2 * t
        front, paths = new, counts
    for a in (dist, front, paths):
        a.setflags(write=False)
    return DistanceData(dist, t, cycle, front, paths, reached == n * n)


def girth(g: Graph | DistanceData) -> int | None:
    """Length of the shortest cycle, or None if the graph is acyclic.  Read
    off the level loop; pass the graph's DistanceData to skip rerunning it."""
    return (g if isinstance(g, DistanceData) else distance_data(g)).girth


def moore_bound(k: int, d: int) -> int:
    """Largest vertex count a k-regular graph of diameter d can reach:
    1 + k * sum_{j<d} (k-1)^j.  Exact (arbitrary-precision) integers, so
    the growth in k^d cannot overflow."""
    if k < 1:
        raise ValueError("degree must be at least 1")
    if d < 0:
        raise ValueError("diameter must be nonnegative")
    return 1 + k * sum((k - 1) ** j for j in range(d))


@dataclass(frozen=True)
class ProjectorFamily:
    """Spectrum of an adjacency matrix with an orthonormal block of
    eigenvectors per distinct eigenvalue, in matching (decreasing) order.
    Projectors are formed on demand, one at a time."""

    spectrum: EigenClusters
    blocks: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.blocks[0].shape[0]

    def projector(self, i: int) -> np.ndarray:
        """E_i = U_i U_i^T, the orthogonal projector onto eigenspace i."""
        u = self.blocks[i]
        return u @ u.T


def spectral_projectors(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> ProjectorFamily:
    """Eigenspaces of the adjacency matrix from one eigh, with the
    eigenvalues clustered at tol.

    Requires a connected regular graph.  The top eigenvalue k of a
    k-regular graph has one eigenvector per component, so connectivity is
    read off its multiplicity.
    """
    if g.regular_degree() is None:
        raise GraphStructureError("not regular: spectral projector analysis needs a regular graph")
    w, vecs = np.linalg.eigh(g.adjacency_matrix(max_dense))
    spectrum, labels = cluster_spectrum(w, tol)
    if spectrum.multiplicities[0] > 1:
        raise GraphStructureError("not connected: spectral projector analysis needs a connected graph")
    return ProjectorFamily(spectrum, tuple(vecs[:, labels == i] for i in range(spectrum.s + 1)))


def k_factor_fraction(spectrum: EigenClusters, i: int) -> Fraction | None:
    """Exact K_i = -L_0/L_i (see numerics.k_factors) on the integer
    Lagrange denominators, when every eigenvalue snapped to an integer."""
    if not all(float(x).is_integer() for x in spectrum.values):
        return None
    s = spectrum.s
    if not 1 <= i <= s:
        raise ValueError(f"index {i} outside 1..{s}")
    v = [int(x) for x in spectrum.values]
    l0, li = (math.prod(v[h] - x for j, x in enumerate(v) if j != h) for h in (0, i))
    return Fraction(-l0, li)


# Floats per temporary of the one-pass far read (8 MB).
_FAR_FLOATS = 1 << 20


def _far_entries(family: ProjectorFamily, far: np.ndarray):
    """Yield (i, rows): rows[j] holds E_(i+j) at every pair x*n + y of far,
    for the nontrivial projectors in order.

    Cost rule: forming the s projectors makes s*n^2 memory passes, while
    reading every far pair off the eigenvector blocks takes |far|*n
    multiply-adds, since U_1..U_s hold n - 1 columns together.  So when
    |far|*n < s*n^2 the blocks are read in one pass: with V the blocks
    side by side, E_i[x, y] = U_i[x].U_i[y] for every i at once is
    np.add.reduceat of V[x]*V[y] at the blocks' first columns.  Projectors
    go in groups whose far entries fill about _FAR_FLOATS floats, and far
    pairs in chunks whose products do.  Otherwise each E_i is formed with
    one product and read at far."""
    n, s = family.n, family.spectrum.s
    if len(far) >= s * n:
        for i in range(1, s + 1):
            yield i, family.projector(i).reshape(1, -1)[:, far]
        return
    x, y = np.divmod(far, n)
    group = max(1, _FAR_FLOATS // len(far))
    for i in range(1, s + 1, group):
        blocks = family.blocks[i:i + group]
        v = np.concatenate(blocks, axis=1)
        starts = np.cumsum([0] + [u.shape[1] for u in blocks[:-1]])
        rows = np.empty((len(blocks), len(far)))
        step = max(1, _FAR_FLOATS // v.shape[1])
        for a in range(0, len(far), step):
            part = slice(a, a + step)
            rows[:, part] = np.add.reduceat(v[x[part]] * v[y[part]], starts, axis=1).T
        yield i, rows


def _forced_entry_scan(family: ProjectorFamily, dd: DistanceData, tol: float):
    """Compare every distance-d entry of each nontrivial projector with the
    forced value -K_i/n, reading the entries with _far_entries.

    With exactly d + 1 eigenvalues the same entries are also checked against
    the geodesic counts: on a distance-d pair every A^t with t < d vanishes,
    so the Lagrange form of E_i gives E_i[x, y] * L_i = (A^d)[x, y], the
    number of x-y geodesics.  K_i and L_i are read off one vector of
    lagrange_denominators.  At i = 0, E_0 = J/n makes every distance-d
    pair have exactly L_0/n geodesics (Hoffman 1963); L_0/n is rounded to
    an integer and compared exactly, before any projector is read.  For
    i >= 1, the count route's entry differing from the projector's by more
    than tol is a MethodsDisagreeError.  The comparison is on the entry
    scale, like the forced-entry check: L_i multiplies d eigenvalue gaps,
    some small, so relative to the counts it carries errors near 1e-9 at
    n = 1001.

    Returns per-index expectations, the worst deviation with its witness
    (the first projector with it, at its first far pair), the least number
    of distance-d pairs in a row, and the worst identity deviation (None
    when the identity does not apply).
    """
    spectrum = family.spectrum
    n, d = family.n, dd.diameter
    sign, log = lagrange = lagrange_denominators(spectrum.values)
    far = dd.far
    paths = dd.far_geodesics if spectrum.s == d else None
    identity = None
    if paths is not None:
        l0 = sign[0] * math.exp(log[0])
        hoffman = round(l0 / n)
        if (wrong := np.flatnonzero(paths != hoffman)).size:
            x, y = divmod(int(far[wrong[0]]), n)
            count = float(paths[wrong[0]])
            raise MethodsDisagreeError(
                f"entry ({x}, {y}) of projector 0 is 1/{n}, but its {count:.17g} geodesics "
                f"give {count / l0!r}; every distance-{d} pair needs L_0/n = {hoffman}")
        identity = 0.0
        scale = np.array([sign[i] * math.exp(log[i]) for i in range(1, spectrum.s + 1)])
    expected = []
    for i, ki in enumerate(k_factors(lagrange), 1):
        frac = k_factor_fraction(spectrum, i)
        expected.append({
            "projector": i,
            "value": -ki / n,
            "exact": str(-frac / n) if frac is not None else None,
        })
    want = np.array([e["value"] for e in expected])
    worst = 0.0
    witness = None
    for i, rows in _far_entries(family, far):
        span = slice(i - 1, i - 1 + len(rows))
        gaps = np.abs(rows - want[span, None])
        local = gaps.max(axis=1)
        j = int(np.argmax(local))
        if local[j] > worst:
            worst = float(local[j])
            witness = [*divmod(int(far[np.argmax(gaps[j])]), n), i + j]
        if paths is not None:
            counted = paths / scale[span, None]
            gaps = np.abs(rows - counted)
            local = gaps.max(axis=1)
            identity = max(identity, float(local.max()))
            if identity > tol:
                j = int(np.argmax(local > tol))
                at = int(np.argmax(gaps[j]))
                x, y = divmod(int(far[at]), n)
                raise MethodsDisagreeError(
                    f"entry ({x}, {y}) of projector {i + j} is {float(rows[j, at])!r}, but its "
                    f"{paths[at]:.17g} geodesics give {float(counted[j, at])!r}")
    return expected, worst, witness, int(np.bincount(far // n, minlength=n).min()), identity


@dataclass(frozen=True)
class GraphAnalysis:
    """The adjacency spectrum, the all-pairs distances, the girth, and the
    projector-entries and large-graph reports, in that order."""

    spectrum: EigenClusters
    distances: DistanceData
    girth: int | None
    reports: tuple[TheoremReport, TheoremReport]


def analyze_graph(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> GraphAnalysis:
    """Both graph theorems from one level loop (distances, geodesic counts,
    girth) and one eigensolve, whose eigenvector blocks give the projectors
    of a connected regular graph.  Graphs above max_dense are refused
    before any of that work; hypothesis failures are report outcomes, not
    exceptions."""
    check_dense_limit(g.n, max_dense)
    dd = distance_data(g, max_dense)
    gi = girth(dd)
    k = g.regular_degree()
    if not k or not dd.is_connected():
        reason = ("not regular" if k is None
                  else "degenerate graph" if k == 0 else "not connected")
        reports = tuple(
            TheoremReport(f"graph(n={g.n})", theorem, HYPOTHESIS_NOT_MET, tol, {"summary": reason})
            for theorem in ("projector-entries", "large-graph"))
        spectrum = eigen_clusters(g.adjacency_matrix(max_dense), tol, max_dense=max_dense)
        return GraphAnalysis(spectrum, dd, gi, reports)
    family = spectral_projectors(g, tol, max_dense)
    scan = _forced_entry_scan(family, dd, tol)
    subject = f"graph(n={g.n}, k={k})"
    return GraphAnalysis(family.spectrum, dd, gi, (
        verify_projector_entries(subject, family.spectrum, dd, scan, tol),
        large_graph_report(subject, g, k, family.spectrum, dd, scan, tol),
    ))


def verify_projector_entries(subject, spectrum, dd, scan, tol) -> TheoremReport:
    """Report on the forced projector entries of a connected regular graph:
    with one more distinct eigenvalue than its diameter d, every pair at
    distance d carries the entry -K_i/n in the i-th eigenprojector."""
    theorem = "projector-entries"
    s, d = spectrum.s, dd.diameter
    if s != d:
        return TheoremReport(subject, theorem, HYPOTHESIS_NOT_MET, tol, {
            "distinct_eigenvalues": s + 1,
            "diameter": d,
            "summary": f"{s + 1} distinct eigenvalues but diameter {d}; need diameter + 1",
        })
    expected, worst, witness, _, identity = scan
    evidence = {
        "spectrum": list(spectrum.values),
        "multiplicities": list(spectrum.multiplicities),
        "diameter": d,
        "expected_entries": expected,
        "max_deviation": worst,
        "geodesic_deviation": identity,
    }
    if worst <= tol:
        evidence["summary"] = (
            f"all distance-{d} entries forced; max deviation {worst:.3g}"
        )
        return TheoremReport(subject, theorem, PASS, tol, evidence)
    evidence["witness"] = witness
    evidence["summary"] = (
        f"entry at pair ({witness[0]}, {witness[1]}) of projector {witness[2]} "
        f"deviates by {worst:.3g}"
    )
    return TheoremReport(subject, theorem, FAIL, tol, evidence)


def large_graph_report(subject, g, k, spectrum, dd, scan, tol) -> TheoremReport:
    """Report on the size test n > M(k, d-1) for the k-regular graph g with
    d+1 distinct eigenvalues: it forces diameter d, the projector entries
    at distance d, and n - M(k, d-1) forced entries in every row."""
    theorem = "large-graph"
    s = spectrum.s
    if s == 0:
        return TheoremReport(subject, theorem, HYPOTHESIS_NOT_MET, tol,
                             {"summary": "single eigenvalue; nothing to force"})
    d = s
    bound = moore_bound(k, d - 1)
    evidence: dict = {
        "n": g.n,
        "k": k,
        "d": d,
        "moore_bound": bound,
        "spectrum": list(spectrum.values),
        "multiplicities": list(spectrum.multiplicities),
    }
    if g.n <= bound:
        evidence["summary"] = f"n = {g.n} <= M({k}, {d - 1}) = {bound}; size hypothesis not met"
        return TheoremReport(subject, theorem, HYPOTHESIS_NOT_MET, tol, evidence)
    expected, worst, entry_witness, min_rows, identity = scan
    evidence.update({
        "diameter": dd.diameter,
        "expected_entries": expected,
        "max_deviation": worst,
        "geodesic_deviation": identity,
        "min_forced_per_row": min_rows,
        "row_floor": g.n - bound,
    })
    failures = []
    if dd.diameter != d:
        failures.append(["diameter", dd.diameter, d])
    if worst > tol:
        failures.append(["entry", *entry_witness])
    if failures:
        evidence["witness"] = failures[0]
        evidence["summary"] = f"conclusion violated: {failures[0]}"
        return TheoremReport(subject, theorem, FAIL, tol, evidence)
    evidence["summary"] = (
        f"n = {g.n} > M({k}, {d - 1}) = {bound}: diameter {d}, forced entries hold, "
        f"min forced per row {min_rows} >= {g.n - bound}"
    )
    return TheoremReport(subject, theorem, PASS, tol, evidence)


def parse_edge_list(text: str, max_dense: int | None = DEFAULT_MAX_DENSE) -> Graph:
    """The graph of an edge list: a header "n m", then m lines "u v" of
    0-based vertices.  n above max_dense is refused before any row is read."""
    bad = "expected two integers, got {row!r}"
    header_line, (n, m), lines = read_header(text, "empty edge-list file", 2, bad, bad)
    check_dense_limit(n, max_dense)
    try:
        edges = read_rows(text, header_line, lines, 2, int, bad, bad)
    except IntRangeError as exc:
        raise ParseError(0, "edge ({}, {}) out of range for n={}".format(*exc.values, n)) from None
    if len(edges) != m:
        raise ParseError(0, f"header declares {m} edges but {len(edges)} found")
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"
