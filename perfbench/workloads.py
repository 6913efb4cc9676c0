"""The four workloads: which inputs each writes, which polyscheme commands
it runs on them, and how each command's --json output is checked against
the closed forms in closed_forms.py.

A workload's operations run in the order listed; one pass over all of
them is a round.  The first operation doubles as the untimed warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import closed_forms as cf

PALEY_ORDERS = (61, 101, 109)
ODD_CYCLES = (61, 81, 101)
SCHEMES = (("johnson", 9, 3), ("hamming", 3, 5), ("johnson", 9, 4),
           ("hamming", 4, 3), ("hamming", 5, 2))
SPHERES = ((20, 2), (28, 2), (12, 3), (14, 3))

# Outputs are floats from eigensolves and traces; closed forms are exact.
REL_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]   # polyscheme arguments before the input path
    input_name: str
    check: Callable[[dict], list[str]]
    signature: Callable[[dict], tuple]


@dataclass(frozen=True)
class Workload:
    inputs: dict[str, Callable[[np.random.Generator], str]]
    ops: tuple[Op, ...]
    cross_check: Callable[[dict[str, dict]], list[str]] = lambda outputs: []


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(y))


def _all_close(xs, ys) -> bool:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return xs.shape == ys.shape and all(_close(x, y) for x, y in zip(xs.ravel(), ys.ravel()))


def _expect(problems: list[str], ok: bool, what: str, got, want) -> None:
    if not ok:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# --- graph workloads ---------------------------------------------------------


def check_graph(out: dict, facts: dict) -> list[str]:
    problems: list[str] = []
    for key in ("n", "edges", "degree", "diameter", "girth", "multiplicities"):
        _expect(problems, out.get(key) == facts[key], key, out.get(key), facts[key])
    _expect(problems, _all_close(out.get("spectrum", []), facts["spectrum"]),
            "spectrum", out.get("spectrum"), facts["spectrum"])
    reports = out.get("reports", [])
    theorems = [(r["theorem"], r["status"]) for r in reports]
    want = [("projector-entries", "pass"), ("large-graph", "pass")]
    _expect(problems, theorems == want, "reports", theorems, want)
    n, k, d = facts["n"], facts["degree"], facts["diameter"]
    forced = [-ki / n for ki in cf.k_factors(facts["spectrum"])]
    for r in reports:
        got = [e["value"] for e in r["evidence"].get("expected_entries", [])]
        _expect(problems, _all_close(got, forced), f"{r['theorem']} forced entries", got, forced)
    if len(reports) == 2:
        bound = reports[1]["evidence"].get("moore_bound")
        _expect(problems, bound == cf.moore_bound(k, d - 1), "moore bound", bound,
                cf.moore_bound(k, d - 1))
    return problems


def graph_signature(out: dict) -> tuple:
    return (out["degree"], out["diameter"], out["girth"], tuple(out["multiplicities"]),
            tuple(r["status"] for r in out["reports"]))


def _graph_workload(family: str, sizes, edges_of, facts_of) -> Workload:
    inputs, ops = {}, []
    for n in sizes:
        fname = f"{family}-{n}.edges"
        facts = facts_of(n)
        inputs[fname] = lambda rng, n=n: cf.edge_list_text(n, edges_of(n), rng.permutation(n))
        ops.append(Op(f"{family}-{n}", ("analyze-graph",), fname,
                      lambda out, facts=facts: check_graph(out, facts), graph_signature))
    return Workload(inputs, tuple(ops))


# --- scheme workload -----------------------------------------------------------


def check_scheme(out: dict, forms: dict, Q, mode: str) -> list[str]:
    problems: list[str] = []
    d = forms["d"]
    for key, want in (("mode", mode), ("n", forms["n"]), ("d", d),
                      ("degrees", forms["degrees"]),
                      ("multiplicities", forms["multiplicities"])):
        _expect(problems, out.get(key) == want, key, out.get(key), want)
    _expect(problems, _all_close(out.get("P", []), forms["P"]), "P", out.get("P"), forms["P"])
    qf = [[float(v) for v in row] for row in Q]
    _expect(problems, _all_close(out.get("Q", []), qf), "Q", out.get("Q"), qf)
    verdicts = out.get("verdicts", [])
    _expect(problems, len(verdicts) == 6 * d, "verdict count", len(verdicts), 6 * d)
    chain = list(range(d + 1))
    for idx, kind in ((0, "P"), (3, "Q")):
        if idx < len(verdicts):
            v = verdicts[idx]
            got = (v["kind"], v["base_index"], v["status"], v["ordering"])
            want = (kind, 1, "polynomial", chain)
            _expect(problems, got == want, f"{kind} detector on index 1", got, want)
    statuses = [r["status"] for r in out.get("reports", [])]
    _expect(problems, "fail" not in statuses, "report statuses", statuses, "no fail")
    want_reports = d if mode == "explicit" else 0
    _expect(problems, len(statuses) == want_reports, "report count", len(statuses), want_reports)
    return problems


def scheme_signature(out: dict) -> tuple:
    return (tuple((v["kind"], v["base_index"], v["status"], tuple(v["ordering"] or ()))
                  for v in out["verdicts"]),
            tuple(r["status"] for r in out["reports"]))


def routes_agree(explicit: dict, parametric: dict) -> list[str]:
    """Explicit and --parametric analyses of one scheme give the same
    degrees, multiplicities, eigenmatrices and verdicts."""
    problems: list[str] = []
    for key in ("degrees", "multiplicities"):
        _expect(problems, explicit[key] == parametric[key], f"route {key}",
                explicit[key], parametric[key])
    for key in ("P", "Q"):
        _expect(problems, _all_close(explicit[key], parametric[key]), f"route {key}",
                explicit[key], parametric[key])
    for ve, vp in zip(explicit["verdicts"], parametric["verdicts"]):
        same = ve["status"] == vp["status"] and (
            ve["ordering"] is None or vp["ordering"] is None or ve["ordering"] == vp["ordering"])
        _expect(problems, same, f"route verdict {ve['kind']}{ve['base_index']}",
                (ve["status"], ve["ordering"]), (vp["status"], vp["ordering"]))
    return problems


def _scheme_workload() -> Workload:
    inputs, ops, pairs = {}, [], []
    for family, a, b in SCHEMES:
        forms = cf.scheme_closed_forms(family, a, b)
        Q = cf.second_eigenmatrix(forms["P"], forms["n"])
        stem = f"{family}-{a}-{b}"
        inputs[stem + ".rel"] = (
            lambda rng, fam=family, a=a, b=b, forms=forms: cf.relation_matrix_text(
                cf.relation_labels(fam, a, b), forms["d"], rng.permutation(forms["n"])))
        inputs[stem + ".tensor"] = lambda rng, forms=forms: cf.tensor_text(forms, rng)
        for mode, suffix, argv in (("explicit", ".rel", ("analyze-scheme",)),
                                   ("parametric", ".tensor", ("analyze-scheme", "--parametric"))):
            check = (lambda out, forms=forms, Q=Q, mode=mode:
                     check_scheme(out, forms, Q, mode))
            ops.append(Op(f"{stem}-{mode}", argv, stem + suffix, check, scheme_signature))
        pairs.append((f"{stem}-explicit", f"{stem}-parametric"))

    def cross_check(outputs: dict[str, dict]) -> list[str]:
        return [p for e, q in pairs for p in routes_agree(outputs[e], outputs[q])]

    return Workload(inputs, tuple(ops), cross_check)


# --- sphere workload -------------------------------------------------------------


def check_sphere(out: dict, sph: dict, route: str) -> list[str]:
    problems: list[str] = []
    reports = out.get("reports", [])
    if len(reports) != 1:
        return [f"expected one report, got {len(reports)}"]
    rep = reports[0]
    _expect(problems, rep["status"] == "pass", "status", rep["status"], "pass")
    ev = rep["evidence"]
    for key, want in (("n", sph["n"]), ("m", sph["m"]), ("d", sph["s"]), ("route", route),
                      ("absolute_bound", sph["absolute_bound"])):
        _expect(problems, ev.get(key) == want, key, ev.get(key), want)
    _expect(problems, _all_close(ev.get("values", []), sph["values"]), "values",
            ev.get("values"), sph["values"])
    if route == "schur":
        _expect(problems, ev.get("schur_diameter") == sph["s"], "schur_diameter",
                ev.get("schur_diameter"), sph["s"])
    checks = ev.get("checks", [])
    _expect(problems, len(checks) == sph["s"], "class checks", len(checks), sph["s"])
    for got, want in zip(checks, sph["forced"]):
        i = want["class"]
        _expect(problems, want["multiplicity"] >= sph["floor"] > 0,
                f"closed-form multiplicity of -K*_{i}", want["multiplicity"], sph["floor"])
        _expect(problems, _close(got["eigenvalue"], want["eigenvalue"]), f"-K*_{i}",
                got["eigenvalue"], want["eigenvalue"])
        _expect(problems, got["multiplicity"] == want["multiplicity"], f"multiplicity {i}",
                got["multiplicity"], want["multiplicity"])
        _expect(problems, got["floor"] == sph["floor"], f"floor {i}", got["floor"], sph["floor"])
    return problems


def sphere_signature(out: dict) -> tuple:
    rep = out["reports"][0]
    ev = rep["evidence"]
    return (rep["status"], ev["m"], ev["d"], ev.get("schur_diameter"),
            tuple(c["multiplicity"] for c in ev.get("checks", [])))


def _sphere_workload() -> Workload:
    inputs, ops = {}, []
    for n, k in SPHERES:
        sph = cf.johnson_sphere(n, k)
        fname = f"johnson-{n}-{k}.gram"
        inputs[fname] = lambda rng, n=n, k=k: cf.gram_text(n, k, rng.permutation(math.comb(n, k)))
        for route in ("size", "schur"):
            ops.append(Op(f"johnson-{n}-{k}-{route}", ("analyze-gram", "--route", route), fname,
                          lambda out, sph=sph, route=route: check_sphere(out, sph, route),
                          sphere_signature))
    return Workload(inputs, tuple(ops))


def build(name: str) -> Workload:
    if name == "graph-dense":
        return _graph_workload("paley", PALEY_ORDERS, cf.paley_edges, cf.paley_facts)
    if name == "graph-long":
        return _graph_workload("cycle", ODD_CYCLES, cf.cycle_edges, cf.cycle_facts)
    if name == "scheme":
        return _scheme_workload()
    if name == "sphere":
        return _sphere_workload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("graph-dense", "graph-long", "scheme", "sphere")
