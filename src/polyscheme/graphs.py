"""Regular-graph analysis: distances, girth, adjacency spectra and
eigenprojectors, the degree/diameter bound, and the forced-entry checks
for graphs with as few distinct eigenvalues as their diameter allows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GraphStructureError, ParseError, content_lines
from .numerics import (
    DEFAULT_MAX_DENSE,
    DEFAULT_TOL,
    EigenClusters,
    SymMatrix,
    check_dense_limit,
    eigen_clusters,
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

    def adjacency_matrix(self) -> SymMatrix:
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

    def is_connected(self) -> bool:
        seen = _bfs_distances(self.neighbors, 0)
        return not np.any(seen == UNREACHABLE)


def _bfs_distances(neighbors, root: int) -> np.ndarray:
    dist = np.full(len(neighbors), UNREACHABLE, dtype=int)
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in neighbors[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop distances; UNREACHABLE marks disconnected pairs.

    diameter is the largest finite distance, so every distance class
    0..diameter is nonempty.
    """

    dist: np.ndarray
    diameter: int

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def is_connected(self) -> bool:
        return not np.any(self.dist == UNREACHABLE)

    def relation(self, t: int) -> np.ndarray:
        """Boolean mask of the ordered pairs at distance exactly t."""
        return self.dist == t


def distance_data(g: Graph) -> DistanceData:
    """BFS from every vertex; disconnected input is allowed here."""
    n = g.n
    dist = np.empty((n, n), dtype=int)
    for v in range(n):
        dist[v] = _bfs_distances(g.neighbors, v)
    finite = dist[dist != UNREACHABLE]
    dist.setflags(write=False)
    return DistanceData(dist, int(finite.max()))


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, or None if the graph is acyclic.

    Per-edge BFS: the shortest cycle through edge (u, v) has length one
    more than the shortest u-v path avoiding that edge.
    """
    best: int | None = None
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
        if found is not None:
            cycle = found + 1
            if best is None or cycle < best:
                best = cycle
                if best == 3:
                    return 3
    return best


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
    """Spectrum of an adjacency matrix together with one orthogonal
    projector per distinct eigenvalue, in matching (decreasing) order."""

    spectrum: EigenClusters
    projectors: tuple[SymMatrix, ...]

    @property
    def n(self) -> int:
        return self.projectors[0].n


def spectral_projectors(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> ProjectorFamily:
    """Eigenspace projectors of the adjacency matrix via the Lagrange
    product prod_{j != i} (A - v_j I) / (v_i - v_j).

    Requires a connected regular graph; the product form avoids any
    dependence on an eigenvector basis.
    """
    if g.regular_degree() is None:
        raise GraphStructureError("not regular: spectral projector analysis needs a regular graph")
    if not g.is_connected():
        raise GraphStructureError("not connected: spectral projector analysis needs a connected graph")
    a = g.adjacency_matrix()
    spectrum = eigen_clusters(a, tol, max_dense=max_dense)
    eye = np.eye(g.n)
    projectors = []
    for i, vi in enumerate(spectrum.values):
        prod = eye
        for j, vj in enumerate(spectrum.values):
            if j != i:
                prod = prod @ (a.a - vj * eye) / (vi - vj)
        projectors.append(SymMatrix(prod))
    return ProjectorFamily(spectrum, tuple(projectors))


def k_factor(spectrum: EigenClusters, i: int) -> float:
    """prod over nontrivial j != i of (v_0 - v_j) / (v_i - v_j); the empty
    product (two-eigenvalue spectrum) is 1."""
    s = spectrum.s
    if not 1 <= i <= s:
        raise ValueError(f"index {i} outside 1..{s}")
    v = spectrum.values
    out = 1.0
    for j in range(1, s + 1):
        if j != i:
            out *= (v[0] - v[j]) / (v[i] - v[j])
    return out


def k_factor_fraction(spectrum: EigenClusters, i: int) -> Fraction | None:
    """Exact value of k_factor when every eigenvalue snapped to an integer."""
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
    forced value -K_i/n.  Returns per-index expectations, the worst
    deviation with its witness, and per-row counts of matching entries."""
    n = family.n
    d = dd.diameter
    far = dd.relation(d)
    expected = []
    worst = 0.0
    witness = None
    row_counts = []
    for i in range(1, family.spectrum.s + 1):
        want = -k_factor(family.spectrum, i) / n
        frac = k_factor_fraction(family.spectrum, i)
        expected.append({
            "projector": i,
            "value": want,
            "exact": str(-frac / n) if frac is not None else None,
        })
        ei = family.projectors[i].a
        dev = np.abs(ei - want)
        local = float(dev[far].max())
        if local > worst:
            worst = local
            flat = np.where(far & (dev >= local))
            witness = [int(flat[0][0]), int(flat[1][0]), i]
        row_counts.append(int((dev <= tol).sum(axis=1).min()))
    return expected, worst, witness, row_counts


@dataclass(frozen=True)
class GraphAnalysis:
    """The adjacency spectrum, the all-pairs distances, and the
    projector-entries and large-graph reports, in that order."""

    spectrum: EigenClusters
    distances: DistanceData
    reports: tuple[TheoremReport, TheoremReport]


def analyze_graph(
    g: Graph,
    tol: float = DEFAULT_TOL,
    max_dense: int | None = DEFAULT_MAX_DENSE,
) -> GraphAnalysis:
    """Both graph theorems from one all-pairs BFS, one eigensolve and, for
    a connected regular graph, one projector family.  Graphs above
    max_dense are refused before any of that work; hypothesis failures
    are report outcomes, not exceptions."""
    check_dense_limit(g.n, max_dense)
    dd = distance_data(g)
    k = g.regular_degree()
    if not k or not dd.is_connected():
        reason = ("not regular" if k is None
                  else "degenerate graph" if k == 0 else "not connected")
        reports = tuple(
            TheoremReport(f"graph(n={g.n})", theorem, HYPOTHESIS_NOT_MET, tol, {"summary": reason})
            for theorem in ("projector-entries", "large-graph"))
        return GraphAnalysis(eigen_clusters(g.adjacency_matrix(), tol, max_dense=max_dense),
                             dd, reports)
    family = spectral_projectors(g, tol, max_dense)
    scan = _forced_entry_scan(family, dd, tol)
    subject = f"graph(n={g.n}, k={k})"
    return GraphAnalysis(family.spectrum, dd, (
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
    expected, worst, witness, _ = scan
    evidence = {
        "spectrum": list(spectrum.values),
        "multiplicities": list(spectrum.multiplicities),
        "diameter": d,
        "expected_entries": expected,
        "max_deviation": worst,
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
    expected, worst, entry_witness, row_counts = scan
    min_rows = min(row_counts)
    evidence.update({
        "diameter": dd.diameter,
        "expected_entries": expected,
        "max_deviation": worst,
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
# comments are ignored.


def parse_edge_list(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for line_no, parts in content_lines(text):
        try:
            u, v = map(int, parts)
        except ValueError:
            raise ParseError(line_no, f"expected two integers, got {' '.join(parts)!r}") from None
        if header is None:
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
