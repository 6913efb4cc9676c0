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

from .errors import GraphStructureError, MethodsDisagreeError, ParseError, content_lines
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    EigenClusters,
    SymMatrix,
    check_dense_limit,
    cluster_spectrum,
    eigen_clusters,
    k_factor,
)
from .reports import FAIL, HYPOTHESIS_NOT_MET, PASS, TheoremReport

UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph stored as sorted neighbor tuples."""

    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.neighbors)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in sets[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            sets[u].add(v)
            sets[v].add(u)
        return Graph(tuple(tuple(sorted(s)) for s in sets))

    def edges(self):
        for u, nb in enumerate(self.neighbors):
            for v in nb:
                if u < v:
                    yield (u, v)

    def adjacency_matrix(self, max_dense: int | None = DEFAULT_MAX_DENSE) -> SymMatrix:
        """The dense 0/1 adjacency matrix, built once; every call checks the limit."""
        check_dense_limit(self.n, max_dense)
        return self._adjacency

    @cached_property
    def _adjacency(self) -> SymMatrix:
        a = np.zeros((self.n, self.n))
        for u, nb in enumerate(self.neighbors):
            a[u, list(nb)] = 1.0
        return SymMatrix(a)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.neighbors)

    def regular_degree(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances and geodesic counts, and the girth.

    dist marks disconnected pairs UNREACHABLE.  geodesics[x, y] counts the
    shortest x-y paths (0 if unreachable), exactly while below 2**53.
    diameter is the largest finite distance, so every distance class
    0..diameter is nonempty; girth is None for a forest.
    """

    dist: np.ndarray
    geodesics: np.ndarray
    diameter: int
    girth: int | None

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def is_connected(self) -> bool:
        return not np.any(self.dist == UNREACHABLE)

    def relation(self, t: int) -> np.ndarray:
        """Boolean mask of the ordered pairs at distance exactly t."""
        return self.dist == t


def distance_data(g: Graph, max_dense: int | None = DEFAULT_MAX_DENSE) -> DistanceData:
    """Distances, geodesic counts and girth of g, which may be disconnected.
    Graphs above max_dense are refused before anything n x n is allocated."""
    return adjacency_distances(g.adjacency_matrix(max_dense).a)


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
    geodesic counts: level t + 1 is the unreached part of G_t A, where G_t
    holds the counts of the level-t pairs.  A step is one BLAS product, or a
    gather over the neighbour table of the frontier when _gather_limit
    allows.

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
    paths = np.zeros((n, n))
    flat_dist, flat_paths = dist.reshape(-1), paths.reshape(-1)
    front = np.arange(n) * (n + 1)
    flat_dist[front] = 0
    flat_paths[front] = 1.0
    gather_limit = _gather_limit(n)
    t, cycle = 0, None
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
            carried = np.broadcast_to(flat_paths[front][:, None], reach.shape)[onward]
            counts = np.bincount(slot, weights=carried, minlength=new.size)
        else:
            level = np.zeros(n * n)
            level[front] = flat_paths[front]
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
        flat_paths[new] = counts
        if cycle is None and np.any(counts > 1):
            cycle = 2 * t
        front = new
    dist.setflags(write=False)
    paths.setflags(write=False)
    return DistanceData(dist, paths, t, cycle)


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
    w, vecs = np.linalg.eigh(g.adjacency_matrix(max_dense).a)
    spectrum, labels = cluster_spectrum(w, tol)
    if spectrum.multiplicities[0] > 1:
        raise GraphStructureError("not connected: spectral projector analysis needs a connected graph")
    return ProjectorFamily(spectrum, tuple(vecs[:, labels == i] for i in range(spectrum.s + 1)))


def k_factor_fraction(spectrum: EigenClusters, i: int) -> Fraction | None:
    """Exact value of k_factor(spectrum.values, i) when every eigenvalue
    snapped to an integer."""
    v = spectrum.values
    if not all(float(x).is_integer() for x in v):
        return None
    s = spectrum.s
    if not 1 <= i <= s:
        raise ValueError(f"index {i} outside 1..{s}")
    out = Fraction(1)
    for j in range(1, s + 1):
        if j != i:
            out *= Fraction(int(v[0]) - int(v[j]), int(v[i]) - int(v[j]))
    return out


def _forced_entry_scan(family: ProjectorFamily, dd: DistanceData, tol: float):
    """Compare every distance-d entry of each nontrivial projector with the
    forced value -K_i/n, forming one projector at a time.

    With exactly d + 1 eigenvalues the same entries are also checked against
    the geodesic counts: on a distance-d pair every A^t with t < d vanishes,
    so the Lagrange form of E_i gives E_i[x, y] * prod_{j != i} (v_i - v_j)
    = (A^d)[x, y], the number of x-y geodesics.  The count route's entry
    differing from the projector's by more than tol is a
    MethodsDisagreeError.  The comparison is on the entry scale, like the
    forced-entry check: the product multiplies d eigenvalue gaps, some
    small, so relative to the counts it carries errors near 1e-9 at n = 1001.

    Returns per-index expectations, the worst deviation with its witness,
    per-row counts of matching entries, and the worst identity deviation
    (None when the identity does not apply).
    """
    spectrum = family.spectrum
    n, d, v = family.n, dd.diameter, spectrum.values
    far = np.flatnonzero(dd.relation(d))
    paths = dd.geodesics.reshape(-1)[far] if spectrum.s == d else None
    expected = []
    worst = 0.0
    witness = None
    row_counts = []
    identity = None if paths is None else 0.0
    for i in range(1, spectrum.s + 1):
        want = -k_factor(spectrum.values, i) / n
        frac = k_factor_fraction(spectrum, i)
        expected.append({
            "projector": i,
            "value": want,
            "exact": str(-frac / n) if frac is not None else None,
        })
        ei = family.projector(i)
        entries = ei.reshape(-1)[far]
        gaps = np.abs(entries - want)
        local = float(gaps.max())
        if local > worst:
            worst = local
            witness = [*divmod(int(far[np.argmax(gaps >= local)]), n), i]
        dev = np.abs(np.subtract(ei, want, out=ei), out=ei)
        row_counts.append(int((dev <= tol).sum(axis=1).min()))
        if paths is not None:
            counted = paths / math.prod(v[i] - vj for j, vj in enumerate(v) if j != i)
            gaps = np.abs(entries - counted)
            at = int(np.argmax(gaps))
            identity = max(identity, float(gaps[at]))
            if identity > tol:
                x, y = divmod(int(far[at]), n)
                raise MethodsDisagreeError(
                    f"entry ({x}, {y}) of projector {i} is {entries[at]!r}, but its "
                    f"{paths[at]:.17g} geodesics give {counted[at]!r}")
    return expected, worst, witness, row_counts, identity


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
        _projector_entries_report(subject, family.spectrum, dd, scan, tol),
        _large_graph_report(subject, g, k, family.spectrum, dd, scan, tol),
    ))


def _projector_entries_report(subject, spectrum, dd, scan, tol) -> TheoremReport:
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


def _large_graph_report(subject, g, k, spectrum, dd, scan, tol) -> TheoremReport:
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
    expected, worst, entry_witness, row_counts, identity = scan
    min_rows = min(row_counts)
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
    if min_rows < g.n - bound:
        failures.append(["row-count", min_rows, g.n - bound])
    if failures:
        evidence["witness"] = failures[0]
        evidence["summary"] = f"conclusion violated: {failures[0]}"
        return TheoremReport(subject, theorem, FAIL, tol, evidence)
    evidence["summary"] = (
        f"n = {g.n} > M({k}, {d - 1}) = {bound}: diameter {d}, forced entries hold, "
        f"min forced per row {min_rows} >= {g.n - bound}"
    )
    return TheoremReport(subject, theorem, PASS, tol, evidence)


def verify_projector_entries(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> TheoremReport:
    """Check the forced projector entries at maximal distance.

    For a connected k-regular graph whose distinct-eigenvalue count is one
    more than its diameter d, every pair at distance d must carry the entry
    -K_i/n in the i-th eigenprojector.  Hypothesis failures are report
    outcomes, not exceptions.
    """
    return analyze_graph(g, tol, max_dense).reports[0]


def large_graph_report(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> TheoremReport:
    """Size test n > M(k, d-1) and its four consequences.

    With d+1 distinct eigenvalues and n beyond the degree/diameter bound for
    diameter d-1, the graph must have diameter exactly d, the forced
    projector entries at distance d, and at least n - M(k, d-1) forced
    entries in every projector row.
    """
    return analyze_graph(g, tol, max_dense).reports[1]


# --- edge-list text format ------------------------------------------------
# First line "n m", then m lines "u v" (0-based).  Blank lines and "#"
# comments are ignored.  A header n above the dense limit is refused before
# any per-vertex work, since no analysis could admit the graph.


def parse_edge_list(text: str, max_dense: int | None = DEFAULT_MAX_DENSE) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for line_no, parts in content_lines(text):
        try:
            u, v = map(int, parts)
        except ValueError:
            raise ParseError(line_no, f"expected two integers, got {' '.join(parts)!r}") from None
        if header is None:
            check_dense_limit(u, max_dense)
            header = (u, v)
        else:
            edges.append((u, v))
    if header is None:
        raise ParseError(0, "empty edge-list file")
    n, m = header
    if len(edges) != m:
        raise ParseError(0, f"header declares {m} edges but {len(edges)} found")
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise ParseError(0, str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
