"""Constructions for the worked families.

Graphs: cycles, complete graphs, Petersen, Hoffman-Singleton, Paley,
Johnson, Hamming.  The Johnson and Hamming families have classical
parameters, from which their intersection numbers follow; that is what
makes threshold scans over large members affordable: the eigenmatrices
follow from a tensor of side d + 1 without ever materializing the point
set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MethodsDisagreeError
from .graphs import Graph, distance_data
from .numerics import DEFAULT_TOL, integrality_allowance
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


def _paley_edges(q: int):
    squares = {x * x % q for x in range(1, q)}
    return [(x, y) for x in range(q) for y in range(x + 1, q) if (y - x) % q in squares]


def build_graph(spec: FamilySpec) -> Graph:
    name, args = spec.name, spec.args
    if name == "cycle":
        return Graph.from_edges(args[0], _cycle_edges(args[0]))
    if name == "complete":
        n = args[0]
        return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
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
    if name in ("johnson", "hamming"):
        labels = build_scheme(spec).labels
        return Graph.from_edges(len(labels), np.argwhere(np.triu(labels == 1)))
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
        subsets = np.array(list(itertools.combinations(range(n), k)))
        onehot = np.zeros((len(subsets), n), dtype=np.int64)
        np.put_along_axis(onehot, subsets, 1, axis=1)
        labels = k - onehot @ onehot.T
        return RelationPartition.from_matrix(labels, d=min(k, n - k))
    if name == "hamming":
        d, q = args
        points = np.array(list(itertools.product(range(q), repeat=d)))
        labels = (points[:, None, :] != points[None, :, :]).sum(axis=2)
        return RelationPartition.from_matrix(labels, d=d)
    rel = from_distance_data(distance_data(build_graph(spec)))
    validate_scheme(rel)
    return rel


def _brackets(b: int, d: int) -> list[int]:
    """[0], ..., [d] with [i] = 1 + b + ... + b^(i-1)."""
    return [sum(b ** t for t in range(i)) for i in range(d + 1)]


def classical_intersection_numbers(d: int, b: int, alpha: int, beta: int) -> np.ndarray:
    """Intersection tensor p[i, j, k] = p_ij^k, classes by distance, of a
    distance-regular graph with classical parameters (d, b, alpha, beta)
    (Brouwer-Cohen-Neumaier 1989, section 6.1).

    Its intersection array is b_i = ([d] - [i])(beta - alpha [i]) and
    c_i = [i](1 + alpha [i-1]), with [i] = 1 + b + ... + b^(i-1), and
    a_i = b_0 - b_i - c_i.  L_1 is the tridiagonal matrix of
    A A_j = b_(j-1) A_(j-1) + a_j A_j + c_(j+1) A_(j+1), the three-term
    recurrence (section 4.1) gives L_(i+1) = (L_1 L_i - b_(i-1) L_(i-1)
    - a_i L_i) / c_(i+1), and p[i, j, k] = L_i[k, j].  The arithmetic is
    in exact integers; a count beyond int64 raises OverflowError.
    """
    box = _brackets(b, d)
    bs = [(box[d] - box[i]) * (beta - alpha * box[i]) for i in range(d + 1)]
    cs = [box[i] * (1 + alpha * box[i - 1]) if i else 0 for i in range(d + 1)]
    name = f"classical parameters ({d}, {b}, {alpha}, {beta})"
    if d < 1 or min(bs[:d] + cs[1:]) < 1:
        raise ValueError(f"{name}: need d >= 1 and a positive array, got {{{bs[:d]}; {cs[1:]}}}")
    a1 = np.diag(np.array([bs[0] - bi - ci for bi, ci in zip(bs, cs)], dtype=object))
    a1[range(d), range(1, d + 1)] = bs[:d]
    a1[range(1, d + 1), range(d)] = cs[1:]
    mats = [np.identity(d + 1, dtype=object), a1]
    for i in range(1, d):
        top = a1 @ mats[i] - bs[i - 1] * mats[i - 1] - a1[i, i] * mats[i]
        if (top % cs[i + 1]).any():
            raise ValueError(f"{name} give non-integral intersection numbers")
        mats.append(top // cs[i + 1])
    return np.array([m.T for m in mats], dtype=np.int64)


def _classical_parameters(spec: FamilySpec) -> tuple[int, int, int, int]:
    """(d, b, alpha, beta) of a Johnson or Hamming member (BCN Table 6.1)."""
    if spec.name == "johnson":
        n, k = spec.args
        d = min(k, n - k)
        return d, 1, 1, n - d
    if spec.name == "hamming":
        d, q = spec.args
        return d, 1, 0, q - 1
    raise ValueError(f"no classical parameters for family {spec.name!r}")


def family_tensor(spec: FamilySpec) -> tuple[np.ndarray, int]:
    """(p, n): the intersection tensor of a family member and its number of
    points.  Johnson and Hamming members take it from their classical
    parameters without building any point; the others count on their
    validated scheme."""
    if spec.name in ("johnson", "hamming"):
        n = math.comb(*spec.args) if spec.name == "johnson" else spec.args[1] ** spec.args[0]
        return classical_intersection_numbers(*_classical_parameters(spec)), n
    rel = from_distance_data(distance_data(build_graph(spec)))
    return validate_scheme(rel), rel.n


def _expected_closed_forms(spec: FamilySpec):
    """(degrees, multiplicities, second column of P) for johnson/hamming.
    The column holds theta_j = [d-j](beta - alpha [j]) - [j] of the
    classical parameters (BCN Corollary 8.4.2)."""
    d, b, alpha, beta = _classical_parameters(spec)
    box = _brackets(b, d)
    col1 = [box[d - j] * (beta - alpha * box[j]) - box[j] for j in range(d + 1)]
    if spec.name == "johnson":
        n, k = spec.args
        degrees = [math.comb(k, i) * math.comb(n - k, i) for i in range(d + 1)]
        mults = [math.comb(n, j) - (math.comb(n, j - 1) if j else 0) for j in range(d + 1)]
        return degrees, mults, col1
    q = spec.args[1]
    degrees = [math.comb(d, i) * (q - 1) ** i for i in range(d + 1)]
    return degrees, degrees, col1  # H(d,q) is self-dual: m_j = k_j


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
    if dev > integrality_allowance(max(abs(v) for v in col1)):
        raise MethodsDisagreeError(
            f"{spec.label()}: second eigenmatrix column off closed form by {dev}")
    return params
