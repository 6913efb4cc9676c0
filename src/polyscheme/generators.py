"""Constructions for the worked families.

Graphs: cycles, complete graphs, Petersen, Hoffman-Singleton, Paley,
Johnson, Hamming.  The Johnson and Hamming families also come with
closed-form intersection numbers, which is what makes threshold scans
over large members affordable: the eigenmatrices follow from a tensor of
side d + 1 without ever materializing the point set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MethodsDisagreeError
from .graphs import Graph, distance_data
from .numerics import DEFAULT_TOL
from .schemes import (
    RelationPartition,
    SchemeParameters,
    from_distance_data,
    parametric_parameters,
    validate_scheme,
)

FAMILY_ARG_COUNTS = {
    "cycle": 1,
    "complete": 1,
    "petersen": 0,
    "hoffman-singleton": 0,
    "paley": 1,
    "johnson": 2,
    "hamming": 2,
}

PALEY_LIMIT = 10_000


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class FamilySpec:
    """A named family member, e.g. cycle(6) or johnson(8, 3)."""

    name: str
    args: tuple[int, ...] = ()

    def __post_init__(self):
        if self.name not in FAMILY_ARG_COUNTS:
            known = ", ".join(sorted(FAMILY_ARG_COUNTS))
            raise ValueError(f"unknown family {self.name!r} (known: {known})")
        object.__setattr__(self, "args", tuple(int(a) for a in self.args))
        want = FAMILY_ARG_COUNTS[self.name]
        if len(self.args) != want:
            raise ValueError(f"{self.name} takes {want} argument(s), got {len(self.args)}")
        if self.name == "cycle" and self.args[0] < 3:
            raise ValueError("cycle needs at least 3 vertices")
        if self.name == "complete" and self.args[0] < 2:
            raise ValueError("complete graph needs at least 2 vertices")
        if self.name == "paley":
            q = self.args[0]
            if q > PALEY_LIMIT:
                raise ValueError(f"paley order {q} exceeds the limit {PALEY_LIMIT}")
            if not _is_prime(q) or q % 4 != 1:
                raise ValueError(f"paley order {q} must be a prime congruent to 1 mod 4")
        if self.name == "johnson":
            n, k = self.args
            if not 1 <= k < n:
                raise ValueError(f"johnson needs 1 <= k < n, got n = {n}, k = {k}")
        if self.name == "hamming":
            d, q = self.args
            if d < 1 or q < 2:
                raise ValueError(f"hamming needs d >= 1 and q >= 2, got d = {d}, q = {q}")

    def label(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def _cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def _hoffman_singleton_edges():
    # Five pentagons (vertex 5h + j), five pentagrams (vertex 25 + 5i + j),
    # cross edges by the rule j -> h*i + j mod 5.
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return edges


def _johnson_vertices(n: int, k: int):
    return list(itertools.combinations(range(n), k))


def _johnson_edges(n: int, k: int):
    # Neighbors differ by one swapped element; generating them directly
    # avoids the quadratic all-pairs scan.
    subsets = _johnson_vertices(n, k)
    index = {s: i for i, s in enumerate(subsets)}
    edges = set()
    for i, s in enumerate(subsets):
        inside = set(s)
        for u in s:
            kept = inside - {u}
            for v in range(n):
                if v in inside:
                    continue
                t = tuple(sorted(kept | {v}))
                other = index[t]
                edges.add((i, other) if i < other else (other, i))
    return len(subsets), sorted(edges)


def _hamming_vertices(d: int, q: int):
    return list(itertools.product(range(q), repeat=d))


def _hamming_edges(d: int, q: int):
    points = _hamming_vertices(d, q)
    index = {pt: i for i, pt in enumerate(points)}
    edges = []
    for i, pt in enumerate(points):
        for pos in range(d):
            for v in range(pt[pos] + 1, q):
                edges.append((i, index[pt[:pos] + (v,) + pt[pos + 1:]]))
    return len(points), edges


def _paley_edges(q: int):
    squares = {x * x % q for x in range(1, q)}
    return [(x, y) for x in range(q) for y in range(x + 1, q) if (y - x) % q in squares]


def build_graph(spec: FamilySpec) -> Graph:
    name, args = spec.name, spec.args
    if name == "cycle":
        return Graph.from_edges(args[0], _cycle_edges(args[0]))
    if name == "complete":
        n = args[0]
        return Graph.from_edges(n, itertools.combinations(range(n), 2))
    if name == "petersen":
        pairs = list(itertools.combinations(range(5), 2))
        edges = [(i, j) for i, j in itertools.combinations(range(10), 2)
                 if not set(pairs[i]) & set(pairs[j])]
        return Graph.from_edges(10, edges)
    if name == "hoffman-singleton":
        return Graph.from_edges(50, _hoffman_singleton_edges())
    if name == "paley":
        q = args[0]
        return Graph.from_edges(q, _paley_edges(q))
    if name == "johnson":
        n_vertices, edges = _johnson_edges(*args)
        return Graph.from_edges(n_vertices, edges)
    if name == "hamming":
        n_vertices, edges = _hamming_edges(*args)
        return Graph.from_edges(n_vertices, edges)
    raise AssertionError(name)


def build_scheme(spec: FamilySpec) -> RelationPartition:
    """Relation partition of the family member.

    Johnson and Hamming members get their labels directly from the subset
    or word structure; the rest are distance partitions of the graph,
    which are then checked against the scheme axioms.
    """
    name, args = spec.name, spec.args
    if name == "johnson":
        n, k = args
        subsets = _johnson_vertices(n, k)
        onehot = np.zeros((len(subsets), n), dtype=np.int64)
        for i, s in enumerate(subsets):
            onehot[i, list(s)] = 1
        labels = k - onehot @ onehot.T
        return RelationPartition.from_matrix(labels, d=min(k, n - k))
    if name == "hamming":
        points = np.array(_hamming_vertices(*args), dtype=np.int64)
        labels = (points[:, None, :] != points[None, :, :]).sum(axis=2)
        return RelationPartition.from_matrix(labels, d=args[0])
    rel = from_distance_data(distance_data(build_graph(spec)))
    validate_scheme(rel)
    return rel


def _comb0(m: int, t: int) -> int:
    return math.comb(m, t) if 0 <= t <= m else 0


def johnson_intersection_numbers(n: int, k: int) -> np.ndarray:
    """Intersection tensor of the Johnson scheme, classes by k - overlap.

    Given points x, y with overlap k - h, a third point z is split over
    the four regions cut out by x and y; summing over the size a of the
    piece inside both gives the count in closed form.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n = {n}, k = {k}")
    d = min(k, n - k)
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                total = 0
                for a in range(k - h + 1):
                    total += (_comb0(k - h, a)
                              * _comb0(h, k - i - a)
                              * _comb0(h, k - j - a)
                              * _comb0(n - k - h, i + j + a - k))
                p[i, j, h] = total
    return p


def hamming_intersection_numbers(d: int, q: int) -> np.ndarray:
    """Intersection tensor of the Hamming scheme, classes by distance.

    With x, y differing in h coordinates, a word z is classified by r
    (disagreements inside the h-complement), and inside the h block by
    how many coordinates follow x, follow y, or neither.
    """
    if d < 1 or q < 2:
        raise ValueError(f"need d >= 1 and q >= 2, got d = {d}, q = {q}")
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for h in range(d + 1):
        for i in range(d + 1):
            for j in range(d + 1):
                total = 0
                for r in range(d - h + 1):
                    u = i + j - 2 * r - h
                    s = h + r - i
                    t = h + r - j
                    if u < 0 or s < 0 or t < 0:
                        continue
                    total += (math.comb(d - h, r) * (q - 1) ** r
                              * math.comb(h, s) * math.comb(h - s, t) * (q - 2) ** u)
                p[i, j, h] = total
    return p


def family_tensor(spec: FamilySpec) -> tuple[np.ndarray, int]:
    """(p, n): the intersection tensor of a family member and its number of
    points.  Johnson and Hamming members take the closed forms without
    building any point; the others count on their validated scheme."""
    if spec.name == "johnson":
        n, k = spec.args
        return johnson_intersection_numbers(n, k), math.comb(n, k)
    if spec.name == "hamming":
        d, q = spec.args
        return hamming_intersection_numbers(d, q), q ** d
    rel = build_scheme(spec)
    return validate_scheme(rel), rel.n


def _expected_closed_forms(spec: FamilySpec):
    """(degrees, multiplicities, second column of P) for johnson/hamming."""
    if spec.name == "johnson":
        n, k = spec.args
        d = min(k, n - k)
        degrees = [math.comb(k, i) * math.comb(n - k, i) for i in range(d + 1)]
        mults = [_comb0(n, j) - _comb0(n, j - 1) for j in range(d + 1)]
        col1 = [(k - j) * (n - k - j) - j for j in range(d + 1)]
        return degrees, mults, col1
    if spec.name == "hamming":
        d, q = spec.args
        degrees = [math.comb(d, i) * (q - 1) ** i for i in range(d + 1)]
        mults = [math.comb(d, j) * (q - 1) ** j for j in range(d + 1)]
        col1 = [d * (q - 1) - q * j for j in range(d + 1)]
        return degrees, mults, col1
    raise ValueError(f"no closed forms for family {spec.name!r}")


def family_parameters(spec: FamilySpec, tol: float = DEFAULT_TOL) -> SchemeParameters:
    """Scheme parameters of a Johnson or Hamming member from its tensor.

    The parametric eigenmatrices are cross-checked against the closed-form
    degrees, multiplicities and second eigenmatrix column; a mismatch
    means the two routes disagree and is a hard error.
    """
    degrees, mults, col1 = _expected_closed_forms(spec)
    params = parametric_parameters(*family_tensor(spec), tol)
    if list(params.degrees) != degrees:
        raise MethodsDisagreeError(
            f"{spec.label()}: tensor degrees {list(params.degrees)} != closed form {degrees}")
    if list(params.multiplicities) != mults:
        raise MethodsDisagreeError(
            f"{spec.label()}: multiplicities {list(params.multiplicities)} != closed form {mults}")
    dev = float(np.max(np.abs(params.P[:, 1] - np.array(col1, dtype=float))))
    if dev > 1e-6 * max(1.0, max(abs(v) for v in col1)):
        raise MethodsDisagreeError(
            f"{spec.label()}: second eigenmatrix column off closed form by {dev}")
    return params
