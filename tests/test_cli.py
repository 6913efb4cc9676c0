"""End-to-end tests for the command line interface.

Everything runs in process through cli.main so that exit codes and
stdout/stderr can be asserted without spawning interpreters.
"""

import dataclasses
import importlib
import io
import json
import math
import sys

import numpy as np
import pytest

from polyscheme import graphs, numerics, schemes
from polyscheme.cli import main
from polyscheme.numerics import SymMatrix
from polyscheme.reports import reports_from_json
from polyscheme.spherical import format_gram_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a function in every polyscheme module that imported it, so
    that calls through any of its names are caught."""
    for name, module in list(sys.modules.items()):
        if name == "polyscheme" or name.startswith("polyscheme."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def count_calls(monkeypatch, *qualnames):
    """Count the calls of each polyscheme.<module>.<function> named."""
    calls = dict.fromkeys(qualnames, 0)

    def counted(qualname, fn):
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            return fn(*args, **kwargs)
        return wrapper

    for qualname in qualnames:
        modname, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"polyscheme.{modname}"), attr)
        patch_everywhere(monkeypatch, fn, counted(qualname, fn))
    return calls


def count_dense_builds(monkeypatch):
    """Count SymMatrix constructions; each dense adjacency build makes one."""
    calls = {"SymMatrix": 0}
    original = numerics.SymMatrix.__init__

    def counted(self, entries):
        calls["SymMatrix"] += 1
        original(self, entries)

    monkeypatch.setattr(numerics.SymMatrix, "__init__", counted)
    return calls


def is_projector(m) -> bool:
    """A square matrix P with P @ P = P that is neither 0 nor I."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return 0.5 < float(a.diagonal().sum()) < len(a) - 0.5 and np.allclose(a @ a, a, atol=1e-9)


def record_dense_limits(monkeypatch):
    """Record the limit that every dense-limit check is made against."""
    seen = []
    original = numerics.check_dense_limit

    def recording(n, max_dense=numerics.DEFAULT_MAX_DENSE):
        seen.append(max_dense)
        return original(n, max_dense)

    patch_everywhere(monkeypatch, original, recording)
    return seen


@pytest.fixture
def petersen_edges(tmp_path, capsys):
    path = tmp_path / "pet.edges"
    assert main(["gen", "petersen", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def petersen_rel(tmp_path, capsys):
    path = tmp_path / "pet.rel"
    assert main(["gen", "petersen", "--as", "scheme", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def cube_rel(tmp_path, capsys):
    path = tmp_path / "cube.rel"
    assert main(["gen", "hamming", "3", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def pentagon_gram(tmp_path):
    angles = 2 * math.pi * np.arange(5) / 5
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    path = tmp_path / "pentagon.gram"
    path.write_text(format_gram_matrix(SymMatrix(pts @ pts.T)))
    return path


class TestGen:
    def test_graph_is_default_for_named_families(self, capsys):
        code, out, _ = run(capsys, "gen", "petersen")
        assert code == 0
        assert out.splitlines()[0] == "10 15"

    def test_scheme_is_default_for_parametric_families(self, capsys):
        code, out, _ = run(capsys, "gen", "hamming", "3", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "8 3"
        assert lines[1] == "0 1 1 2 1 2 2 3"

    def test_tensor_output(self, capsys):
        code, out, _ = run(capsys, "gen", "johnson", "5", "2", "--as", "tensor")
        assert code == 0
        assert out.splitlines()[0] == "10 2"

    def test_graph_override(self, capsys):
        code, out, _ = run(capsys, "gen", "hamming", "3", "2", "--as", "graph")
        assert code == 0
        assert out.splitlines()[0] == "8 12"

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "c5.edges"
        code, out, _ = run(capsys, "gen", "cycle", "5", "-o", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "5 5"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "nosuch")
        assert code == 2
        assert err.startswith("error: unknown family 'nosuch'")


class TestAnalyzeGraph:
    def test_petersen_text(self, petersen_edges, capsys):
        code, out, _ = run(capsys, "analyze-graph", str(petersen_edges))
        assert code == 0
        assert "spectrum: 3 (x1)  1 (x5)  -2 (x4)" in out
        assert "diameter: 2   girth: 5" in out
        assert "moore bound: n = 10 > M(3, 1) = 4" in out
        assert "forced entries at diameter: E_1 -> -1/6  E_2 -> 1/15" in out
        assert "[pass] projector-entries" in out
        assert "min forced per row 6 >= 6" in out

    def test_petersen_json_round_trip(self, petersen_edges, capsys):
        code, out, _ = run(capsys, "analyze-graph", str(petersen_edges), "--json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
        reports, meta = reports_from_json(out)
        assert len(reports) == 2
        assert all(r.ok for r in reports)
        assert meta["degree"] == 3
        assert meta["spectrum"] == [3.0, 1.0, -2.0]

    def test_json_to_file(self, petersen_edges, tmp_path, capsys):
        dest = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "analyze-graph", str(petersen_edges), "--json", "-o", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["n"] == 10

    def test_irregular_graph_reports_in_band(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "path3.edges"
        path.write_text("3 2\n0 1\n1 2\n")
        builds = count_dense_builds(monkeypatch)
        code, out, _ = run(capsys, "analyze-graph", str(path))
        assert code == 0
        assert "[hypothesis-not-met]" in out
        # The spectrum of an irregular graph reads the adjacency that the
        # distances were computed from.
        assert builds == {"SymMatrix": 1}

    def test_each_quantity_computed_once(self, petersen_edges, capsys, monkeypatch):
        calls = {"distance_data": 0, "spectral_projectors": 0, "girth": 0,
                 "eigh": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("distance_data", "spectral_projectors", "girth"):
            monkeypatch.setattr(graphs, name, counted(name, getattr(graphs, name)))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        builds = count_dense_builds(monkeypatch)
        code, _, _ = run(capsys, "analyze-graph", str(petersen_edges), "--json")
        assert code == 0
        # One eigh gives the spectrum and the projectors; no eigvalsh.  The
        # dense adjacency is built once and read by the distances and the
        # eigensolve.
        assert calls == {"distance_data": 1, "spectral_projectors": 1, "girth": 1,
                         "eigh": 1, "eigvalsh": 0}
        assert builds == {"SymMatrix": 1}

    @pytest.mark.parametrize("header, argv, n, limit", [
        ("1000000000 0", (), 1000000000, numerics.DEFAULT_MAX_DENSE),
        ("20 0", ("--max-dense", "12"), 20, 12),
    ])
    def test_oversized_header_refused_before_vertices(self, tmp_path, capsys, monkeypatch,
                                                      header, argv, n, limit):
        def fail(*args, **kwargs):
            raise AssertionError("per-vertex work began above the dense limit")

        monkeypatch.setattr(graphs.Graph, "from_edges", staticmethod(fail))
        seen = record_dense_limits(monkeypatch)
        path = tmp_path / "big.edges"
        path.write_text(header + "\n")
        code, out, err = run(capsys, "analyze-graph", str(path), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: dense computation refused for n={n} > limit {limit}; " \
                      "raise the limit explicitly to proceed\n"
        # The parser made the only check, against the given limit.
        assert seen == [limit]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze-graph", "no-such-file.edges")
        assert code == 2
        assert err.startswith("error:")


class TestAnalyzeScheme:
    def test_petersen_verdict_lines(self, petersen_rel, capsys):
        code, out, _ = run(capsys, "analyze-scheme", str(petersen_rel))
        assert code == 0
        assert "points: 10   classes: 2" in out
        assert "P class 1 detector: polynomial; ordering 0-1-2" in out
        assert (
            "P class 1 size condition: polynomial; ordering 0-1-2; n = 10 > M(3, 1) = 4"
            in out
        )
        assert "P class 1 product formula: polynomial; witness l = 2" in out
        assert "Q eigenspace 1 detector: polynomial; ordering 0-1-2; schur-diameter 2" in out

    def test_cube_refutations(self, cube_rel, capsys):
        code, out, _ = run(capsys, "analyze-scheme", str(cube_rel))
        assert code == 0
        assert "P class 1 detector: polynomial; ordering 0-1-2-3" in out
        assert "P class 1 size condition: inconclusive; n = 8 <= M(3, 2) = 10" in out
        assert "P class 2 detector: not_polynomial; relation graph disconnected" in out
        assert "Q eigenspace 2 detector: not_polynomial; Krein-number index graph is not a path from 0" in out
        assert "embedding of eigenspace 2 degenerate: repeated points" in out

    def test_parametric_mode_on_tensor(self, tmp_path, capsys):
        path = tmp_path / "cube.tensor"
        assert main(["gen", "hamming", "3", "2", "--as", "tensor", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "analyze-scheme", str(path), "--parametric")
        assert code == 0
        assert "points: 8   classes: 3   (parametric)" in out
        assert "intersection-number index graph is not a path from 0" in out
        # no point data, so no spherical embeddings are attempted
        assert "sphere-eigenvalue" not in out

    def test_alternate_seed_set_agrees(self, petersen_rel, capsys):
        code, out, _ = run(
            capsys, "analyze-scheme", str(petersen_rel), "--seed-set", "alternate")
        assert code == 0
        assert "P class 1 product formula: polynomial; witness l = 2" in out

    def test_bad_seed_set_is_usage_error(self, petersen_rel, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze-scheme", str(petersen_rel), "--seed-set", "bogus"])
        assert info.value.code == 2

    def test_axiom_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.rel"
        path.write_text("4 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 1\n")
        code, _, err = run(capsys, "analyze-scheme", str(path))
        assert code == 2
        assert err.startswith("error: axiom 1: diagonal pair (3, 3)")

    def test_json_round_trip(self, petersen_rel, capsys):
        code, out, _ = run(capsys, "analyze-scheme", str(petersen_rel), "--json")
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
        assert payload["n"] == 10
        assert payload["degrees"] == [1, 3, 6]
        assert payload["mode"] == "explicit"
        # a detector, size and product verdict for each side of each class
        assert len(payload["verdicts"]) == 12
        assert {v["kind"] for v in payload["verdicts"]} == {"P", "Q"}
        reports, _ = reports_from_json(out)
        assert all(r.ok for r in reports)

    def test_each_quantity_computed_once(self, petersen_rel, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "polyprops.p_polynomial_ordering", "graphs.distance_data",
                            "schemes.validate_scheme", "schemes.idempotents",
                            "spherical.from_gram", "spherical.schur_diameter",
                            "numerics.cluster_values")
        kernels = dict.fromkeys(("class matrix", "np.trace", "np.tensordot", "A_i @ E_j",
                                 "U_j @ U_j^T", "SymMatrix(E_j)"), 0)

        def tally(key, fn):
            def wrapper(*args, **kwargs):
                kernels[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        class ClassMatrix(np.ndarray):
            """A class matrix that counts its products with a projector."""

            def __matmul__(self, other):
                kernels["A_i @ E_j"] += is_projector(other)
                return np.asarray(self) @ np.asarray(other)

        class Block(np.ndarray):
            """An eigenvector block that counts the dense projectors formed
            from it."""

            def __matmul__(self, other):
                product = np.asarray(self) @ np.asarray(other)
                kernels["U_j @ U_j^T"] += is_projector(product)
                return product

        build = schemes.RelationPartition.adjacency
        monkeypatch.setattr(schemes.RelationPartition, "adjacency",
                            tally("class matrix", lambda rel, i: build(rel, i).view(ClassMatrix)))
        monkeypatch.setattr(np, "trace", tally("np.trace", np.trace))
        monkeypatch.setattr(np, "tensordot", tally("np.tensordot", np.tensordot))
        counted_idempotents = schemes.idempotents

        def block_idempotents(*args, **kwargs):
            idems = counted_idempotents(*args, **kwargs)
            return dataclasses.replace(idems, blocks=tuple(u.view(Block) for u in idems.blocks))

        patch_everywhere(monkeypatch, counted_idempotents, block_idempotents)
        sym_init = numerics.SymMatrix.__init__

        def counted_init(self, entries):
            kernels["SymMatrix(E_j)"] += is_projector(entries)
            sym_init(self, entries)

        monkeypatch.setattr(numerics.SymMatrix, "__init__", counted_init)
        code, _, _ = run(capsys, "analyze-scheme", str(petersen_rel), "--json")
        assert code == 0
        # One detector run per class (d = 2); the size condition reuses it.
        # One sphere embedding per eigenspace feeds both its Schur-diameter
        # cross-check and its sphere report; the Schur search clusters
        # nothing, so the clusterings are one spectrum, two embeddings and
        # the four distance-class spectra.
        assert calls == {"polyprops.p_polynomial_ordering": 2, "graphs.distance_data": 0,
                         "schemes.validate_scheme": 1, "schemes.idempotents": 1,
                         "spherical.from_gram": 2, "spherical.schur_diameter": 2,
                         "numerics.cluster_values": 7}
        # The three class matrices are built once and shared.  The
        # idempotents are checked on their eigenvector blocks, so no class
        # matrix meets a dense projector; multiplicities are block widths,
        # not traces; the Krein numbers come from P and Q, with no trace
        # inner product; the only dense projectors are the d eigenspace
        # Grams, each formed once from its block (E_0 never), and none is
        # copied into a SymMatrix.
        assert kernels == {"class matrix": 3, "np.trace": 0, "np.tensordot": 0,
                           "A_i @ E_j": 0, "U_j @ U_j^T": 2, "SymMatrix(E_j)": 0}

    def test_max_dense_reaches_every_stage(self, petersen_rel, capsys, monkeypatch):
        seen = record_dense_limits(monkeypatch)
        code, _, _ = run(capsys, "analyze-scheme", str(petersen_rel), "--json",
                         "--max-dense", "12")
        assert code == 0
        # Only the given limit is checked; the sphere stages, which read an
        # already admitted n x n matrix, check none.
        assert 12 in seen
        assert set(seen) <= {12, None}

    def test_ambiguity_error_prints_plain_floats(self, tmp_path, capsys):
        path = tmp_path / "j83.rel"
        assert main(["gen", "johnson", "8", "3", "-o", str(path)]) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "analyze-scheme", str(path), "--tol", "0.3")
        assert code == 2
        assert err.startswith("error: values ")
        assert err.endswith("adjust the tolerance\n")
        assert "np.float64" not in err

    def test_dense_limit_refuses_before_axioms(self, petersen_rel, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("validate_scheme ran above the dense limit")

        patch_everywhere(monkeypatch, schemes.validate_scheme, failing)
        code, _, err = run(capsys, "analyze-scheme", str(petersen_rel), "--max-dense", "5")
        assert code == 2
        assert err.startswith("error: dense computation refused for n=10 > limit 5")

    def test_tensor_value_overflow_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "huge.tensor"
        path.write_text("3 1\n0 0 0 99999999999999999999\n")
        code, _, err = run(capsys, "analyze-scheme", str(path), "--parametric")
        assert code == 2
        assert err.startswith("error: line 2: value 99999999999999999999 outside")


class TestAnalyzeGram:
    def test_pentagon_size_route(self, pentagon_gram, capsys):
        code, out, _ = run(capsys, "analyze-gram", str(pentagon_gram))
        assert code == 0
        assert "points: 5   dimension: 2   distinct products: 2" in out
        assert "values: 1  0.3090169944  -0.8090169944" in out
        assert "[pass] sphere-eigenvalue" in out
        assert "multiplicity >= 2" in out

    def test_pentagon_schur_route(self, pentagon_gram, capsys):
        code, out, _ = run(capsys, "analyze-gram", str(pentagon_gram), "--route", "schur")
        assert code == 0
        assert "[pass] sphere-eigenvalue" in out

    def test_declared_d(self, pentagon_gram, capsys):
        code, out, _ = run(
            capsys, "analyze-gram", str(pentagon_gram), "--declared-d", "3")
        assert code == 0
        assert "n = 5 <= N(2, 2) = 5; size hypothesis not met" in out

    def test_declared_d_is_refused_on_the_schur_route(self, pentagon_gram, capsys):
        code, out, err = run(capsys, "analyze-gram", str(pentagon_gram), "--route", "schur",
                             "--declared-d", "3")
        assert code == 2
        assert out == ""
        assert err == "error: a declared distance count applies to the size route only\n"

    def test_json(self, pentagon_gram, capsys):
        code, out, _ = run(capsys, "analyze-gram", str(pentagon_gram), "--json")
        assert code == 0
        reports, meta = reports_from_json(out)
        assert len(reports) == 1
        assert reports[0].ok
        assert reports[0].subject == "sphere(n=5, m=2, s=2)"
        assert meta["subject"].endswith("pentagon.gram")

    @pytest.mark.parametrize("route", ["size", "schur"])
    def test_max_dense_reaches_every_stage(self, pentagon_gram, capsys, monkeypatch, route):
        seen = record_dense_limits(monkeypatch)
        code, _, _ = run(capsys, "analyze-gram", str(pentagon_gram), "--route", route,
                         "--max-dense", "7")
        assert code == 0
        # The set is admitted once against the given limit; the checks that
        # read it never fall back to the default.
        assert [limit for limit in seen if limit is not None] == [7]

    @pytest.mark.parametrize("route", ["size", "schur"])
    def test_single_point_has_nothing_to_force(self, capsys, monkeypatch, route):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1\n1.0\n"))
        code, out, _ = run(capsys, "analyze-gram", "--route", route, "--json", "-")
        assert code == 0
        reports, _ = reports_from_json(out)
        assert reports[0].status == "hypothesis-not-met"
        assert "checks" not in reports[0].evidence

    def test_malformed_gram(self, tmp_path, capsys):
        path = tmp_path / "bad.gram"
        path.write_text("2\n1.0 zz\nzz 1.0\n")
        code, _, err = run(capsys, "analyze-gram", str(path))
        assert code == 2
        assert err.startswith("error: line 2:")


class TestBounds:
    def test_moore_single(self, capsys):
        code, out, _ = run(capsys, "bounds", "moore", "7", "1")
        assert code == 0
        assert out == "M(7, 1) = 8\n"

    def test_moore_span(self, capsys):
        code, out, _ = run(capsys, "bounds", "moore", "3", "1..3")
        assert code == 0
        assert out.splitlines() == ["M(3, 1) = 4", "M(3, 2) = 10", "M(3, 3) = 22"]

    def test_absolute(self, capsys):
        code, out, _ = run(capsys, "bounds", "absolute", "5", "1")
        assert code == 0
        assert out == "N(5, 1) = 6\n"

    def test_empty_span(self, capsys):
        code, _, err = run(capsys, "bounds", "moore", "3", "5..3")
        assert code == 2
        assert err == "error: empty range '5..3'\n"


class TestScan:
    def test_johnson_summary(self, capsys):
        code, out, _ = run(capsys, "scan", "johnson3", "6..12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scan johnson(n, 3)"
        assert lines[-2] == "P-condition: never true for n in range"
        assert lines[-1] == (
            "Q-condition: first true at n = 7; largest not-true at n = 6; "
            "monotone beyond first success: yes")

    def test_hamming_summary(self, capsys):
        code, out, _ = run(capsys, "scan", "hamming3", "2..8")
        assert code == 0
        lines = out.splitlines()
        assert lines[-2] == (
            "P-condition: first true at q = 7; largest not-true at q = 6; "
            "monotone beyond first success: yes")
        assert lines[-1] == (
            "Q-condition: first true at q = 4; largest not-true at q = 3; "
            "monotone beyond first success: yes")

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "johnson3", "6..8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "johnson3"
        assert payload["range"] == [6, 8]
        first = payload["rows"][0]
        assert first["param"] == 6
        assert first["n"] == 20
        assert first["absolute_bound"] == 20
        assert first["q_status"] == "inconclusive"

    def test_unknown_scan_family(self, capsys):
        code, _, err = run(capsys, "scan", "cycle9", "3..5")
        assert code == 2
        assert err.startswith("error: unknown scan family")
