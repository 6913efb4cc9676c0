"""Closed forms for the benchmark's input families, and the input texts.

Nothing here imports polyscheme: the benchmark writes its inputs and the
values it checks the program's output against from the formulas below.

Families:
  Paley(q)  spectrum (q-1)/2, (-1 +- sqrt q)/2, diameter 2, girth 3;
  C_n       spectrum 2 cos(2 pi j / n), diameter (n-1)/2, girth n (n odd);
  H(d, q)   Krawtchouk first eigenmatrix, classes by Hamming distance;
  J(n, k)   Eberlein first eigenmatrix, classes by k - |x & y|;
  and the first-eigenspace sphere embedding of J(n, k).

Every input is relabelled by a permutation the caller draws from a seed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def _comb0(m: int, t: int) -> int:
    return math.comb(m, t) if 0 <= t <= m else 0


def moore_bound(k: int, d: int) -> int:
    return 1 + k * sum((k - 1) ** j for j in range(d))


def absolute_bound(m: int, d: int) -> int:
    if d == 0:
        return 1
    return math.comb(m + d - 1, d) + math.comb(m + d - 2, d - 1)


def k_factors(values) -> list[float]:
    """K_i = prod over j >= 1, j != i of (v_0 - v_j) / (v_i - v_j), i = 1..s.

    With v the decreasing adjacency spectrum this is the graph K_i; with v
    the inner products headed by 1 it is the sphere K*_i.
    """
    s = len(values) - 1
    out = []
    for i in range(1, s + 1):
        ki = 1.0
        for j in range(1, s + 1):
            if j != i:
                ki *= (values[0] - values[j]) / (values[i] - values[j])
        out.append(ki)
    return out


# --- graphs ---------------------------------------------------------------


def paley_edges(q: int) -> list[tuple[int, int]]:
    squares = {x * x % q for x in range(1, q)}
    return [(x, y) for x in range(q) for y in range(x + 1, q) if (y - x) % q in squares]


def paley_facts(q: int) -> dict:
    r = math.sqrt(q)
    half = (q - 1) // 2
    return {
        "n": q, "edges": q * half // 2, "degree": half,
        "spectrum": [float(half), (-1 + r) / 2, (-1 - r) / 2],
        "multiplicities": [1, half, half],
        "diameter": 2, "girth": 3,
    }


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def cycle_facts(n: int) -> dict:
    """Odd cycle C_n: 2 cos(2 pi j / n) for j = 0..(n-1)/2, decreasing."""
    d = (n - 1) // 2
    return {
        "n": n, "edges": n, "degree": 2,
        "spectrum": [2 * math.cos(2 * math.pi * j / n) for j in range(d + 1)],
        "multiplicities": [1] + [2] * d,
        "diameter": d, "girth": n,
    }


def edge_list_text(n: int, edges, perm: np.ndarray) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{perm[u]} {perm[v]}" for u, v in edges)
    return "\n".join(lines) + "\n"


# --- Hamming and Johnson schemes -------------------------------------------


def hamming_points(d: int, q: int) -> np.ndarray:
    return np.array(list(itertools.product(range(q), repeat=d)), dtype=np.int64)


def johnson_points(n: int, k: int) -> np.ndarray:
    """0/1 incidence rows of the k-subsets of range(n)."""
    subsets = list(itertools.combinations(range(n), k))
    inc = np.zeros((len(subsets), n), dtype=np.int64)
    for row, s in enumerate(subsets):
        inc[row, list(s)] = 1
    return inc


def relation_labels(family: str, a: int, b: int) -> np.ndarray:
    """Class of every pair: Hamming distance for H(a=d, b=q), k - overlap
    for J(a=n, b=k)."""
    if family == "hamming":
        pts = hamming_points(a, b)
        return (pts[:, None, :] != pts[None, :, :]).sum(axis=2)
    inc = johnson_points(a, b)
    return b - inc @ inc.T


def scheme_closed_forms(family: str, a: int, b: int) -> dict:
    """n, d, degrees, multiplicities and the first eigenmatrix P (row =
    eigenspace j, column = class i) as exact integers, from the Krawtchouk
    (H(a=d, b=q)) or Eberlein (J(a=n, b=k), k <= n/2) polynomials."""
    if family == "hamming":
        d, q = a, b
        npts = q ** d
        degrees = [math.comb(d, i) * (q - 1) ** i for i in range(d + 1)]
        mults = list(degrees)
        P = [[sum((-1) ** t * (q - 1) ** (i - t) * _comb0(j, t) * _comb0(d - j, i - t)
                  for t in range(i + 1))
              for i in range(d + 1)] for j in range(d + 1)]
    elif family == "johnson":
        n, k = a, b
        if 2 * k > n:
            raise ValueError("closed forms here need k <= n/2")
        d = k
        npts = math.comb(n, k)
        degrees = [math.comb(k, i) * math.comb(n - k, i) for i in range(d + 1)]
        mults = [_comb0(n, j) - _comb0(n, j - 1) for j in range(d + 1)]
        P = [[sum((-1) ** t * _comb0(j, t) * _comb0(k - j, i - t) * _comb0(n - k - j, i - t)
                  for t in range(i + 1))
              for i in range(d + 1)] for j in range(d + 1)]
    else:
        raise ValueError(f"unknown scheme family {family!r}")
    return {"n": npts, "d": d, "degrees": degrees, "multiplicities": mults, "P": P}


def second_eigenmatrix(P, n: int) -> list[list[Fraction]]:
    """Q = n P^-1, by exact Gauss-Jordan elimination over the rationals."""
    size = len(P)
    aug = [[Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(size)]
           for r, row in enumerate(P)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [[n * v for v in row[size:]] for row in aug]


def intersection_tensor(cf: dict) -> np.ndarray:
    """p[i, j, k] = sum_l m_l P[l][i] P[l][j] P[l][k] / (n k_k), exactly."""
    d, n, P = cf["d"], cf["n"], cf["P"]
    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    for i, j, k in itertools.product(range(d + 1), repeat=3):
        total = sum(m * P[l][i] * P[l][j] * P[l][k] for l, m in enumerate(cf["multiplicities"]))
        val = Fraction(total, n * cf["degrees"][k])
        if val.denominator != 1:
            raise ArithmeticError(f"p[{i},{j},{k}] = {val} is not an integer")
        p[i, j, k] = int(val)
    return p


def relation_matrix_text(labels: np.ndarray, d: int, perm: np.ndarray) -> str:
    """labels[x, y] written as the relation of points perm[x], perm[y]."""
    inv = np.argsort(perm)
    relabelled = labels[np.ix_(inv, inv)]
    lines = [f"{labels.shape[0]} {d}"]
    lines.extend(" ".join(map(str, row)) for row in relabelled.tolist())
    return "\n".join(lines) + "\n"


def tensor_text(forms: dict, rng: np.random.Generator) -> str:
    """The nonzero intersection numbers as "i j k value" lines, in an
    order drawn from rng."""
    p = intersection_tensor(forms)
    entries = [(*t, int(p[t])) for t in itertools.product(range(forms["d"] + 1), repeat=3)
               if p[t]]
    lines = [f"{forms['n']} {forms['d']}"]
    lines.extend("{} {} {} {}".format(*entries[r]) for r in rng.permutation(len(entries)))
    return "\n".join(lines) + "\n"


# --- sphere embedding of J(n, k) ---------------------------------------------


def johnson_sphere(n: int, k: int) -> dict:
    """First-eigenspace embedding of J(n, k): the points are the centred
    incidence vectors 1_x - (k/n) 1, scaled to unit length.  Two points
    meeting in h elements have inner product (h - k^2/n) / (k (n-k) / n).
    Class i (inner product values[i]) is the Johnson distance-i graph."""
    cf = scheme_closed_forms("johnson", n, k)
    values = [1.0] + [(h - k * k / n) / (k * (n - k) / n) for h in range(k - 1, -1, -1)]
    npts = cf["n"]
    floor = npts - absolute_bound(n - 1, k - 1)
    forced = []
    for i, ki in enumerate(k_factors(values), start=1):
        eig = -ki
        mult = sum(m for row, m in zip(cf["P"], cf["multiplicities"])
                   if abs(row[i] - eig) <= 1e-6 * max(1.0, abs(eig)))
        forced.append({"class": i, "eigenvalue": eig, "multiplicity": mult})
    return {"n": npts, "m": n - 1, "s": k, "values": values,
            "absolute_bound": absolute_bound(n - 1, k - 1), "floor": floor,
            "forced": forced}


def gram_text(n: int, k: int, perm: np.ndarray) -> str:
    """Gram matrix of the J(n, k) embedding, points relabelled by perm."""
    labels = relation_labels("johnson", n, k)
    overlap = k - labels
    table = np.array([(h - k * k / n) / (k * (n - k) / n) for h in range(k)] + [1.0])
    inv = np.argsort(perm)
    gram = table[overlap[np.ix_(inv, inv)]]
    lines = [str(gram.shape[0])]
    lines.extend(" ".join(map(repr, row)) for row in gram.tolist())
    return "\n".join(lines) + "\n"
