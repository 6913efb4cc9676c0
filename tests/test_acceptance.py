"""Acceptance suite: the headline guarantees, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the status lines as they
go by; without -s they still appear in captured output on failure.
"""

import contextlib
import math

import numpy as np
import pytest

from conftest import (
    GRAPH_SPECS,
    SCHEME_SPECS,
    analyzed_scheme,
    catalog_graph,
    projectors,
    sphere_of,
)
from polyscheme.errors import SchemeAxiomError
from polyscheme.generators import FamilySpec, family_parameters
from polyscheme.graphs import distance_data, large_graph_report, moore_bound, spectral_projectors
from polyscheme.numerics import SymMatrix
from polyscheme.polyprops import (
    POLYNOMIAL,
    check_p_large,
    check_product_formula_P,
    check_product_formula_Q,
    check_q_large,
    p_polynomial_ordering,
    q_polynomial_ordering,
)
from polyscheme.reports import PASS
from polyscheme.schemes import RelationPartition, validate_scheme
from polyscheme.spherical import (
    absolute_bound,
    from_gram,
    from_idempotent,
    schur_diameter,
    verify_sphere_theorem,
)

GOLDEN = (1 + math.sqrt(5)) / 2


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def pentagon_gram():
    angles = 2 * math.pi * np.arange(5) / 5
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    return SymMatrix(pts @ pts.T)


def test_criterion_1_petersen_projector_entries():
    with criterion(1, "Petersen projector entries"):
        graph = catalog_graph("petersen")
        family = spectral_projectors(graph)
        dist = distance_data(graph).dist
        pairs = [(x, y) for x in range(10) for y in range(x + 1, 10) if dist[x, y] == 2]
        assert len(pairs) == 30
        for x, y in pairs:
            assert abs(family.projector(1)[x, y] - (-1 / 6)) <= 1e-9
            assert abs(family.projector(2)[x, y] - (1 / 15)) <= 1e-9


def test_criterion_2_large_graph_reports():
    names = ["petersen", "hoffman-singleton", "cycle5", "cycle6", "paley13"]
    with criterion(2, "large-graph report on five catalog graphs"):
        for name in names:
            graph = catalog_graph(name)
            report = large_graph_report(graph)
            assert report.status == PASS, name
            ev = report.evidence
            floor = ev["n"] - moore_bound(ev["k"], ev["d"] - 1)
            assert ev["row_floor"] == floor, name
            assert ev["min_forced_per_row"] >= floor, name
            assert ev["max_deviation"] <= 1e-9, name


def scan_statuses(family, fixed, span, check):
    out = {}
    for t in span:
        args = (t, fixed) if family == "johnson" else (fixed, t)
        params = family_parameters(FamilySpec(family, args))
        out[t] = check(params, 1).status == POLYNOMIAL
    return out


def first_true_and_monotone(status_by_param):
    params = sorted(status_by_param)
    first = next((t for t in params if status_by_param[t]), None)
    monotone = all(status_by_param[t] for t in params if first is not None and t >= first)
    return first, monotone


def test_criterion_3_size_thresholds():
    with criterion(3, "size-condition thresholds in the two families"):
        p_johnson = scan_statuses("johnson", 3, range(6, 61), check_p_large)
        assert first_true_and_monotone(p_johnson) == (51, True)
        assert p_johnson[50] is False

        p_hamming = scan_statuses("hamming", 3, range(2, 13), check_p_large)
        assert first_true_and_monotone(p_hamming) == (7, True)

        q_johnson = scan_statuses("johnson", 3, range(6, 21), check_q_large)
        assert first_true_and_monotone(q_johnson) == (7, True)

        q_hamming = scan_statuses("hamming", 3, range(2, 13), check_q_large)
        assert first_true_and_monotone(q_hamming) == (4, True)


def test_criterion_4_srg_sufficiency():
    with criterion(4, "strongly regular size sufficiency"):
        for name in ["petersen", "paley13"]:
            scheme = analyzed_scheme(name)
            params = scheme.params
            assert params.n > 1 + params.degrees[1]
            assert params.n > 1 + params.multiplicities[1]
            p_verdict = check_p_large(params, 1, p_polynomial_ordering(params, 1, scheme.rel))
            assert p_verdict.status == POLYNOMIAL
            assert p_verdict.evidence["confirmed_by"] == "explicit"
            assert p_verdict.ordering == (0, 1, 2)
            assert check_q_large(params, 1).status == POLYNOMIAL
            q_verdict = q_polynomial_ordering(params, 1, sphere=sphere_of(scheme, 1))
            assert q_verdict.status == POLYNOMIAL
            assert q_verdict.ordering == (0, 1, 2)


def test_criterion_5_product_formula_witnesses():
    with criterion(5, "product-formula witnesses"):
        scheme = analyzed_scheme("petersen")
        params = scheme.params
        p_formula = check_product_formula_P(params, 1)
        assert p_formula.status == POLYNOMIAL
        l = p_formula.evidence["witness_l"]
        assert l == 2
        for h in range(1, params.d + 1):
            assert abs(p_formula.evidence["lhs"][h - 1] - (-params.Q[l, h])) <= 1e-9
        q_formula = check_product_formula_Q(params, 1)
        assert q_formula.status == POLYNOMIAL
        lq = q_formula.evidence["witness_l"]
        for h in range(1, params.d + 1):
            assert abs(q_formula.evidence["lhs"][h - 1] - (-params.P[lq, h])) <= 1e-9

        # the witness is always the closing class of the detected ordering
        checked = 0
        for name in sorted(SCHEME_SPECS):
            other = analyzed_scheme(name)
            for j in range(1, other.params.d + 1):
                pv = p_polynomial_ordering(other.params, j, rel=other.rel)
                fv = check_product_formula_P(other.params, j)
                if pv.status == POLYNOMIAL and fv.status == POLYNOMIAL:
                    assert fv.evidence["witness_l"] == pv.ordering[-1], (name, j)
                    checked += 1
                qv = q_polynomial_ordering(other.params, j)
                gv = check_product_formula_Q(other.params, j)
                if qv.status == POLYNOMIAL and gv.status == POLYNOMIAL:
                    assert gv.evidence["witness_l"] == qv.ordering[-1], (name, j)
                    checked += 1
        assert checked >= 8


def test_criterion_6_forced_sphere_eigenvalues():
    with criterion(6, "forced eigenvalues of few-distance sets"):
        pentagon = verify_sphere_theorem(from_gram(pentagon_gram()))
        assert pentagon.status == PASS
        check = pentagon.evidence["checks"][0]
        assert abs(check["eigenvalue"] - (-GOLDEN)) <= 1e-9
        assert check["multiplicity"] == 2
        assert check["floor"] == 5 - absolute_bound(2, 1)

        scheme = analyzed_scheme("petersen")
        embedded = verify_sphere_theorem(from_idempotent(scheme.params, scheme.idems, 1))
        assert embedded.status == PASS
        check = embedded.evidence["checks"][0]
        assert abs(check["eigenvalue"] - (-2.0)) <= 1e-9
        assert check["multiplicity"] >= 10 - absolute_bound(5, 1) == 4

        for report in (pentagon, embedded):
            for entry in report.evidence["checks"]:
                assert entry["interp_residual"] <= 1e-7


def test_criterion_7_schur_diameter():
    with criterion(7, "Schur-diameter values and detector equivalence"):
        assert schur_diameter(from_gram(pentagon_gram())) == 2
        scheme = analyzed_scheme("petersen")
        sph = from_idempotent(scheme.params, scheme.idems, 1)
        assert np.allclose(sph.gram.a, 2 * projectors(scheme.idems)[1], atol=1e-12)
        assert schur_diameter(sph) == 2
        assert schur_diameter(from_gram(np.eye(6))) == 1

        compared = 0
        for name in sorted(SCHEME_SPECS):
            other = analyzed_scheme(name)
            col = other.params.Q[:, 1]
            if np.min(np.diff(np.sort(col))) <= 1e-9:
                continue
            embedded = from_idempotent(other.params, other.idems, 1)
            sd = schur_diameter(embedded)
            verdict = q_polynomial_ordering(other.params, 1)
            assert (sd == other.params.d) == (verdict.status == POLYNOMIAL), name
            compared += 1
        assert compared == len(SCHEME_SPECS)


def test_criterion_8_route_agreement():
    with criterion(8, "explicit and parametric routes agree"):
        for name, spec in [("johnson83", FamilySpec("johnson", (8, 3))),
                           ("hamming33", FamilySpec("hamming", (3, 3)))]:
            explicit = analyzed_scheme(name).params
            closed = family_parameters(spec)
            assert np.max(np.abs(explicit.P - closed.P)) <= 1e-9
            assert np.max(np.abs(explicit.Q - closed.Q)) <= 1e-9
        for name in sorted(SCHEME_SPECS):
            params = analyzed_scheme(name).params
            residual = params.P @ params.Q - params.n * np.eye(params.d + 1)
            assert np.max(np.abs(residual)) <= 1e-9, name


def test_criterion_9_property_suites():
    with criterion(9, "projector identities and axiom rejection"):
        for name in sorted(GRAPH_SPECS):
            graph = catalog_graph(name)
            family = spectral_projectors(graph)
            mats = [family.projector(i) for i in range(family.spectrum.s + 1)]
            total = np.zeros_like(mats[0])
            recon = np.zeros_like(mats[0])
            for i, m in enumerate(mats):
                assert np.max(np.abs(m @ m - m)) <= 1e-7, name
                for other in mats[i + 1:]:
                    assert np.max(np.abs(m @ other)) <= 1e-7, name
                total += m
                recon += family.spectrum.values[i] * m
            assert np.max(np.abs(total - np.eye(graph.n))) <= 1e-7, name
            assert np.max(np.abs(recon - graph.adjacency_matrix().a)) <= 1e-7, name

        cases = [
            (np.array([[1, 0], [0, 1]]), 1, [(0, 0)]),
            (np.array([[0, 1], [2, 0]]), 3, [(0, 1), (1, 0)]),
            (np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 4, [(0, 0), (1, 1)]),
        ]
        for labels, axiom, witnesses in cases:
            rel = RelationPartition.from_matrix(labels)
            with pytest.raises(SchemeAxiomError) as info:
                validate_scheme(rel)
            assert info.value.axiom == axiom
            assert info.value.witnesses == witnesses
