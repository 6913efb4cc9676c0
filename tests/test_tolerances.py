"""The tolerance policy of numerics: every allowance is read at the sites
the policy names, a set is checked at the tolerance it was clustered at,
and a small --tol does not turn rounding into a different verdict."""

import dataclasses
import sys

import numpy as np
import pytest

from conftest import analyzed_scheme
from polyscheme import cli, generators, numerics, polyprops, schemes, spherical
from polyscheme.errors import (
    DegenerateElementError,
    GramError,
    MethodsDisagreeError,
    ToleranceAmbiguityError,
)
from polyscheme.generators import FamilySpec, build_scheme, family_parameters, family_tensor
from polyscheme.numerics import DEFAULT_MAX_DENSE, DEFAULT_TOL, EigenClusters, cluster_values
from polyscheme.polyprops import analyze_scheme, check_product_formula_Q, check_q_large
from polyscheme.reports import PASS
from polyscheme.spherical import from_gram, from_idempotent, verify_sphere_theorem

PENTAGON = np.cos(2 * np.pi * np.subtract.outer(np.arange(5), np.arange(5)) / 5)

# Each allowance and the functions that read it.
SITES = {
    "cluster_gap": {"cluster_values", "eigenmatrices", "idempotents"},
    "residual_allowance": {"idempotents"},
    "eigensolve_rounding": {"idempotents", "rank_allowance"},
    "gram_allowance": {"idempotents", "from_idempotent", "from_gram"},
    "scaled_allowance": {"eigenmatrices", "_product_formula"},
    "integrality_allowance": {"eigenmatrices", "character_table", "_size_condition",
                              "family_parameters"},
    "lookup_allowance": {"lookup_multiplicity"},
    "interpolation_allowance": {"verify_sphere_theorem"},
    "order_quantum": {"_eigenspace_order"},
    "krein_allowance": {"q_polynomial_ordering"},
    "rank_allowance": {"rank"},
    "determinant_allowance": {"certifies"},
}
MODULES = (numerics, schemes, polyprops, spherical, generators)


def verdicts(analysis):
    return [(v.kind, v.base_index, v.status, v.evidence.get("witness_l"))
            for v in analysis.verdicts]


def test_every_allowance_is_read_at_its_sites(monkeypatch):
    seen = {name: set() for name in SITES}
    real = {name: getattr(numerics, name) for name in SITES}

    def recorder(name):
        def record(*args):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a generator expression
                caller = caller.f_back
            seen[name].add(caller.f_code.co_name)
            return real[name](*args)
        return record

    for module in MODULES:
        for name in SITES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorder(name))
    johnson = FamilySpec("johnson", (6, 2))
    # J(6,2) takes the exact route, C_7, whose P is irrational, the dense one.
    analyze_scheme(build_scheme(johnson))
    analyze_scheme(build_scheme(FamilySpec("cycle", (7,))))
    analyze_scheme(family_tensor(johnson))
    _idempotents_at_1e_14()
    family_parameters(johnson)
    verify_sphere_theorem(from_gram(PENTAGON))
    assert seen == SITES


def test_default_tol_values():
    # The rounding floor of gram_allowance stays below the default tol up
    # to the default dense limit, so default-tol runs see plain tol.
    assert numerics.gram_allowance(DEFAULT_TOL, DEFAULT_MAX_DENSE) == DEFAULT_TOL
    assert numerics.gram_allowance(1e-13, 125) > 1e-13
    assert numerics.order_quantum(DEFAULT_TOL) == DEFAULT_TOL
    assert numerics.residual_allowance(DEFAULT_TOL, 729) == 100 * DEFAULT_TOL * 729
    assert numerics.scaled_allowance(DEFAULT_TOL, 0.5) == DEFAULT_TOL
    assert numerics.scaled_allowance(DEFAULT_TOL, 20.0) == 20 * DEFAULT_TOL


# Each site with its allowance set to a value that refuses (-1.0 is below
# any deviation; inf is above any gap, so no two values separate) and to
# one that accepts.
def _idempotents():
    s = analyzed_scheme("petersen")
    return schemes.idempotents(s.rel, s.params)


def _idempotents_at_1e_14():
    # The first seed clusters H(3,3) ambiguously at 1e-14, the second not.
    s = analyzed_scheme("hamming33")
    return schemes.idempotents(s.rel, s.params, 1e-14)


def _from_idempotent():
    s = analyzed_scheme("johnson83")
    return from_idempotent(s.rel, s.params, None, 1)


def _from_certified():
    s = analyzed_scheme("johnson83")
    return from_idempotent(s.rel, s.params, schemes.character_table(s.params), 1)


def _from_gram():
    return from_gram(PENTAGON)


def _parametric():
    return schemes.parametric_parameters(*family_tensor(FamilySpec("hamming", (6, 3))))


def _product_formula():
    params = _parametric()
    return check_product_formula_Q(params, 1).evidence["matches"] == [6]


def _q_large():
    params = analyzed_scheme("petersen").params
    Q = params.Q.copy()
    Q[0, 1] += 1e-3
    return check_q_large(dataclasses.replace(params, Q=Q), 1)


def _krein():
    return polyprops.q_polynomial_ordering(analyzed_scheme("petersen").params, 1)


def _family():
    return family_parameters(FamilySpec("johnson", (6, 2)))


def _scheme_sphere():
    s = analyzed_scheme("johnson83")
    return verify_sphere_theorem(from_idempotent(s.rel, s.params, None, 1)).status == PASS


def _gram_sphere():
    return verify_sphere_theorem(from_gram(PENTAGON)).status == PASS


def _scheme_schur():
    s = analyzed_scheme("johnson83")
    return spherical.schur_diameter(from_idempotent(s.rel, s.params, None, 1))


def _certificate():
    # The normalized annihilator: the identity, with every eigenvalue 1 by P.
    sph = _from_idempotent()
    roots = sph.values[1:]
    scale = 1.0 / np.prod(np.subtract(1.0, roots))
    return sph.algebra.certifies(numerics.eval_root_product(roots, scale, sph.algebra.class_values),
                                 numerics.eval_root_product(roots, scale, sph.gram), sph.tolerance)


def _cluster():
    return cluster_values([0.0, 1.5e-9], 1e-9)[1] == [1, 1]


def _multiplicity():
    return EigenClusters((3.0, 1.0, -2.0), (1, 5, 4), 1e-9).multiplicity_of(1.0) == 5


def _order():
    s = analyzed_scheme("petersen")
    return schemes.eigenmatrices(s.p, s.rel.n).multiplicities == (1, 5, 4)


REFUSE_ACCEPT = [
    # module, allowance, value that refuses, value that accepts, call, refusal
    (schemes, "residual_allowance", -1.0, np.inf, _idempotents, MethodsDisagreeError),
    (schemes, "cluster_gap", np.inf, 2e-9, _idempotents, DegenerateElementError),
    (schemes, "eigensolve_rounding", np.inf, 0.0, _idempotents_at_1e_14,
     ToleranceAmbiguityError),
    (schemes, "gram_allowance", -1.0, np.inf, _idempotents, MethodsDisagreeError),
    (spherical, "gram_allowance", -1.0, np.inf, _from_certified, MethodsDisagreeError),
    (spherical, "gram_allowance", -1.0, np.inf, _from_gram, GramError),
    (schemes, "scaled_allowance", -1.0, 1e-9, _parametric, DegenerateElementError),
    (schemes, "cluster_gap", np.inf, 2e-9, _parametric, DegenerateElementError),
    (schemes, "integrality_allowance", -1.0, np.inf, _parametric, DegenerateElementError),
    (polyprops, "scaled_allowance", -1.0, 1e-9, _product_formula, False),
    (polyprops, "integrality_allowance", -1.0, np.inf, _q_large, ValueError),
    (polyprops, "krein_allowance", np.full((3, 3), np.inf), 0.0, _krein, ToleranceAmbiguityError),
    (generators, "integrality_allowance", -1.0, np.inf, _family, MethodsDisagreeError),
    (numerics, "lookup_allowance", -1.0, 1e-8, _scheme_sphere, False),
    (numerics, "lookup_allowance", -1.0, 1e-8, _gram_sphere, False),
    (numerics, "lookup_allowance", -1.0, 1e-8, _multiplicity, False),
    (spherical, "interpolation_allowance", -1.0, np.inf, _gram_sphere, False),
    (numerics, "cluster_gap", 2e-9, 1e-9, _cluster, ToleranceAmbiguityError),
    (numerics, "eigensolve_rounding", np.inf, 0.0, _scheme_schur, ToleranceAmbiguityError),
    (spherical, "rank_allowance", np.inf, 0.0, _scheme_schur, ToleranceAmbiguityError),
    (spherical, "determinant_allowance", -1.0, np.inf, _certificate, False),
    (schemes, "order_quantum", np.inf, 1e-9, _order, False),
]


@pytest.mark.parametrize(
    "module, name, refusing, accepting, call, refusal", REFUSE_ACCEPT,
    ids=[f"{row[0].__name__.rsplit('.', 1)[1]}.{row[1]}-{row[4].__name__[1:]}" for row in REFUSE_ACCEPT])
def test_site_refuses_and_accepts_with_its_allowance(monkeypatch, module, name, refusing,
                                                      accepting, call, refusal):
    monkeypatch.setattr(module, name, lambda *args: refusing)
    if refusal is False:
        assert call() is False
    else:
        with pytest.raises(refusal):
            call()
    monkeypatch.setattr(module, name, lambda *args: accepting)
    assert call() is not False


def test_sphere_checks_read_the_set_tolerance():
    # Built at 1e-9, checked at 1e-9: the report carries the set's own
    # tolerance, and one built at another tolerance reports that one.
    sph = from_gram(PENTAGON)
    assert verify_sphere_theorem(sph).tolerance == sph.tolerance == 1e-9
    coarse = dataclasses.replace(sph, tolerance=1e-6)
    assert verify_sphere_theorem(coarse, route="schur").tolerance == 1e-6


def test_parametric_q_product_formula_at_1e_12():
    # lhs = 19.999999999998444 on H(6,3) eigenspace 1: 1.6e-12 from 20,
    # beyond an absolute 1e-12 but within 1e-12 scaled by |lhs|.
    scheme = family_tensor(FamilySpec("hamming", (6, 3)))
    small = analyze_scheme(scheme, 1e-12)
    assert verdicts(small) == verdicts(analyze_scheme(scheme))
    q1 = small.verdicts[5]
    assert (q1.kind, q1.base_index, q1.status, q1.evidence["witness_l"]) == ("Q", 1, "polynomial", 6)


@pytest.mark.parametrize("spec", [FamilySpec("hamming", (3, 5)), FamilySpec("johnson", (9, 4)),
                                  FamilySpec("hamming", (6, 3)), FamilySpec("johnson", (12, 4))],
                         ids=lambda spec: spec.label())
def test_parametric_krein_rounding_is_refused_at_1e_14(tmp_path, capsys, spec):
    # The zero Krein number q_{1,3}^0 of each, computed from P and Q, rounds
    # to about 1.2e-14..2e-14: above tol, where it would link two indices
    # and call eigenspace 1 not Q-polynomial, but within krein_allowance.
    scheme = family_tensor(spec)
    assert analyze_scheme(scheme).verdicts[3].status == "polynomial"
    path = tmp_path / "scheme.tensor"
    path.write_text(schemes.format_intersection_tensor(*scheme))
    assert cli.main(["analyze-scheme", "--parametric", "--tol", "1e-14", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: Krein number q_{1,3}^{0} = ")


@pytest.mark.parametrize("scheme", [family_tensor(FamilySpec("johnson", (10, 5))),
                                    family_tensor(FamilySpec("hamming", (7, 3))),
                                    build_scheme(FamilySpec("johnson", (10, 5)))],
                         ids=["J(10,5)-parametric", "H(7,3)-parametric", "J(10,5)-explicit"])
def test_scheme_routes_separate_at_1e_3(scheme):
    # The generic element's intersection-matrix eigenvalues need gaps above
    # cluster_gap(tol), as its clusters on the points do.  Gaps above
    # 2 tol max|lambda| refused both tensors at 1e-3: 0.63..0.90 against
    # least gaps of 0.18..0.70 at J(10,5).  The explicit route reads the
    # same eigenvalues.
    coarse = analyze_scheme(scheme, 1e-3)
    assert [(v.kind, v.status, v.ordering) for v in coarse.verdicts] == \
        [(v.kind, v.status, v.ordering) for v in analyze_scheme(scheme).verdicts]


def test_explicit_gram_check_at_1e_13():
    # The Gram of H(3,5)'s eigenspace 1 deviates from Q's column by about
    # 2.8e-13, the rounding of a 125-term sum, not a disagreement.
    rel = build_scheme(FamilySpec("hamming", (3, 5)))
    assert verdicts(analyze_scheme(rel, 1e-13)) == verdicts(analyze_scheme(rel))


def test_sub_resolution_tol_refused_after_one_eigensolve(monkeypatch):
    # On H(6,3) every draw's spectrum rounds at about 2.4e-13, eps times
    # its largest eigenvalue, so at 1e-13 the first ambiguous clustering
    # is refused with its own message; no further seed is drawn.
    rel = build_scheme(FamilySpec("hamming", (6, 3)))
    params = schemes.eigenmatrices(schemes.validate_scheme(rel), rel.n)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    with pytest.raises(ToleranceAmbiguityError, match="; adjust the tolerance$"):
        schemes.idempotents(rel, params, 1e-13)
    assert shapes == [(729, 729)]


def test_split_eigenspace_below_the_rounding_blames_the_tolerance():
    # K_6 at 1e-15: the generic element's spectrum rounds at about 2.2e-15,
    # eps times its largest eigenvalue, and splits the 5-dimensional
    # eigenspace into clusters more than 2 tol apart.  No clustering is
    # ambiguous, but sizes [1, 4, 1] against P's [1, 5] refuse the
    # tolerance, not the routes.
    rel = build_scheme(FamilySpec("complete", (6,)))
    params = schemes.eigenmatrices(schemes.validate_scheme(rel), rel.n)
    with pytest.raises(ToleranceAmbiguityError,
                       match=r"^the generic element's eigenvalue clusters have sizes \[1, 4, 1\], "
                             r"not P's multiplicities \[1, 5\], at tol 1e-15 below the "
                             r"eigensolve's rounding 2\.1\d*e-15; adjust the tolerance$"):
        schemes.idempotents(rel, params, 1e-15)


def test_explicit_routes_at_1e_15():
    # K_6's P is integral: its idempotents are certified exactly, no
    # eigensolve splits its 5-dimensional eigenspace, and 1e-15 gives the
    # default-tol verdicts.  C_11's P is irrational, and its generic
    # element's rounding splits eigenspaces, which blames the tolerance.
    k6 = build_scheme(FamilySpec("complete", (6,)))
    assert verdicts(analyze_scheme(k6, 1e-15)) == verdicts(analyze_scheme(k6))
    with pytest.raises(ToleranceAmbiguityError,
                       match=r"^the generic element's eigenvalue clusters have sizes "
                             r"\[1, 2, 2, 1, 1, 1, 1, 2\], not P's multiplicities "
                             r"\[1, 2, 2, 2, 2, 2\], at tol 1e-15 below"):
        analyze_scheme(build_scheme(FamilySpec("cycle", (11,))), 1e-15)


def test_ambiguous_draw_above_the_rounding_takes_the_next_seed():
    # H(3,3) at 1e-14: the first seed's spectrum spreads over 1.1e-14, above
    # tol, but eps times its largest eigenvalue is below tol, and the second
    # seed clusters within it.
    rel = build_scheme(FamilySpec("hamming", (3, 3)))
    assert verdicts(analyze_scheme(rel, 1e-14)) == verdicts(analyze_scheme(rel))


def test_from_gram_blames_the_tolerance_at_1e_14():
    # The J(14,3) first-eigenspace Gram (n/m_1) U_1 U_1^T, formed from the
    # eigensolve's block, symmetrized and with a unit diagonal, is positive
    # semidefinite, but its eigensolve rounds the least eigenvalue to about
    # -1.6e-14: below -tol, within gram_allowance.  The clustering then
    # refuses the tolerance.
    rel = build_scheme(FamilySpec("johnson", (14, 3)))
    params = schemes.eigenmatrices(schemes.validate_scheme(rel), rel.n)
    u = schemes.idempotents(rel, params)[1]
    gram = rel.n / params.multiplicities[1] * (u @ u.T)
    gram = (gram + gram.T) / 2.0
    np.fill_diagonal(gram, 1.0)
    assert from_gram(gram).dimension == 13
    with pytest.raises(ToleranceAmbiguityError):
        from_gram(gram, 1e-14)


def test_cycle_101_forced_eigenvalue_between_two_clusters_blames_the_tolerance():
    # At 1e-3 the class-1 eigenvalues 2 cos(2 pi k/101) nearest -K*_1 of
    # eigenspace 1 are two clusters within lookup_allowance = 0.01 of it.
    # The spectrum read off P and the dense one both hold the two, and one
    # lookup rule refuses the tolerance for both.
    rel = build_scheme(FamilySpec("cycle", (101,)))
    with pytest.raises(ToleranceAmbiguityError,
                       match=r"^2 eigenvalue clusters lie within 0\.01 of -1\.99\d*; "
                             r"adjust the tolerance$"):
        analyze_scheme(rel, 1e-3)


@pytest.mark.parametrize("tol", [1e-13, 5e-14, 3e-14, 2e-14])
def test_cycle_101_schur_rank_at_the_rounding_edge_blames_the_tolerance(tol):
    # P reads the least eigenvalue of the first degree-50 trial on the
    # 101-gon as 1.5e-13: above these tols, but within n eps max|lambda|
    # = 8.7e-13 of them, where the dense eigensolve reads rank 99.
    rel = build_scheme(FamilySpec("cycle", (101,)))
    with pytest.raises(ToleranceAmbiguityError,
                       match=r"^eigenvalue 1\.5\d*e-13 of an entrywise polynomial, read off P, "
                             r"is above tol .* but within its rounding allowance 8\.6\d*e-13; "
                             r"adjust the tolerance$"):
        analyze_scheme(rel, tol)
