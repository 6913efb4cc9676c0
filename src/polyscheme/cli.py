"""Command-line front end.

Subcommands: gen (emit catalog objects as text files), analyze-graph,
analyze-scheme, analyze-gram (run the theorem checks on a file),
bounds (degree/diameter and dimension/distance bound tables), scan
(threshold tables over the Johnson and Hamming families).

Exit codes: 0 when no check failed, 1 when some check reports failure,
2 on usage, parse, or analysis errors.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import generators, polyprops, schemes, spherical
from .errors import AnalysisError
from .graphs import analyze_graph, format_edge_list, moore_bound, parse_edge_list
from .numerics import DEFAULT_MAX_DENSE, DEFAULT_TOL
from .reports import any_failed, reports_to_json


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.10g}"


def _matrix_block(mat) -> list[str]:
    cells = [[_fmt(v) for v in row] for row in mat]
    width = max(len(c) for row in cells for c in row)
    return ["  " + "  ".join(c.rjust(width) for c in row) for row in cells]


def cmd_gen(args) -> int:
    spec = generators.FamilySpec(args.family.lower().replace("_", "-"), tuple(args.params))
    kind = args.kind
    if kind is None:
        kind = "scheme" if spec.name in ("johnson", "hamming") else "graph"
    if kind == "graph":
        text = format_edge_list(generators.build_graph(spec))
    elif kind == "scheme":
        text = schemes.format_relation_matrix(generators.build_scheme(spec))
    else:
        text = schemes.format_intersection_tensor(*generators.family_tensor(spec))
    _write(text, args.output)
    return 0


def cmd_analyze_graph(args) -> int:
    g = parse_edge_list(_read(args.path), args.max_dense)
    tol = args.tol
    analysis = analyze_graph(g, tol, args.max_dense)
    spectrum, dd, reports = analysis.spectrum, analysis.distances, analysis.reports
    k = g.regular_degree()
    gi = analysis.girth
    facts = {
        "n": g.n,
        "edges": g.edge_count,
        "degree": k,
        "spectrum": list(spectrum.values),
        "multiplicities": list(spectrum.multiplicities),
        "diameter": dd.diameter if dd.is_connected() else None,
        "girth": gi,
    }
    if args.json:
        _write(reports_to_json(reports, subject=args.path, tolerance=tol, **facts), args.output)
        return 1 if any_failed(reports) else 0
    lines = [f"graph: {args.path}"]
    degree_txt = str(k) if k is not None else "not regular"
    lines.append(f"vertices: {g.n}   edges: {g.edge_count}   degree: {degree_txt}")
    spec_txt = "  ".join(f"{_fmt(v)} (x{m})"
                         for v, m in zip(spectrum.values, spectrum.multiplicities))
    lines.append(f"spectrum: {spec_txt}")
    diam_txt = str(dd.diameter) if dd.is_connected() else "disconnected"
    lines.append(f"diameter: {diam_txt}   girth: {gi if gi is not None else 'acyclic'}")
    if k is not None and spectrum.s >= 1:
        b = moore_bound(k, spectrum.s - 1)
        cmp_txt = ">" if g.n > b else "<="
        lines.append(f"moore bound: n = {g.n} {cmp_txt} M({k}, {spectrum.s - 1}) = {b}")
    expected = reports[0].evidence.get("expected_entries")
    if expected:
        ent_txt = "  ".join(
            f"E_{e['projector']} -> {e['exact'] if e['exact'] else _fmt(e['value'])}"
            for e in expected)
        lines.append(f"forced entries at diameter: {ent_txt}")
    lines.extend(rep.line() for rep in reports)
    _write("\n".join(lines) + "\n", args.output)
    return 1 if any_failed(reports) else 0


# Labels of the six verdicts analyze_scheme returns per class.
_VERDICT_LABELS = ("detector", "size condition", "product formula") * 2


def _verdict_line(label: str, v) -> str:
    noun = "class" if v.kind == "P" else "eigenspace"
    bits = [v.status]
    if v.ordering is not None:
        bits.append("ordering " + "-".join(str(t) for t in v.ordering))
    if "witness_l" in v.evidence:
        bits.append(f"witness l = {v.evidence['witness_l']}")
    if "schur_diameter" in v.evidence:
        bits.append(f"schur-diameter {v.evidence['schur_diameter']}")
    if v.reason:
        bits.append(v.reason)
    return f"{v.kind} {noun} {v.base_index} {label}: " + "; ".join(bits)


def cmd_analyze_scheme(args) -> int:
    parse = schemes.parse_intersection_tensor if args.parametric else schemes.parse_relation_matrix
    analysis = polyprops.analyze_scheme(
        parse(_read(args.path)), args.tol, schemes.SEED_SETS[args.seed_set], args.max_dense)
    params, verdicts, reports = analysis.params, analysis.verdicts, analysis.reports
    d = params.d
    if args.json:
        meta = {
            "subject": args.path,
            "mode": "parametric" if args.parametric else "explicit",
            "n": params.n,
            "d": d,
            "degrees": list(params.degrees),
            "multiplicities": list(params.multiplicities),
            "P": params.P.tolist(),
            "Q": params.Q.tolist(),
            "verdicts": [v.to_dict() for v in verdicts],
            "tolerance": args.tol,
        }
        _write(reports_to_json(reports, **meta), args.output)
        return 1 if any_failed(reports) else 0
    lines = [f"scheme: {args.path}",
             f"points: {params.n}   classes: {d}" + ("   (parametric)" if args.parametric else ""),
             "degrees: " + " ".join(str(v) for v in params.degrees),
             "multiplicities: " + " ".join(str(v) for v in params.multiplicities),
             "eigenmatrix P (rows = eigenspaces):"]
    lines.extend(_matrix_block(params.P))
    lines.append("eigenmatrix Q (rows = classes):")
    lines.extend(_matrix_block(params.Q))
    for j in range(d):
        per_class = verdicts[6 * j:6 * (j + 1)]
        lines.extend(_verdict_line(label, v) for label, v in zip(_VERDICT_LABELS, per_class))
        if reports:
            lines.append(reports[j].line())
    _write("\n".join(lines) + "\n", args.output)
    return 1 if any_failed(reports) else 0


def cmd_analyze_gram(args) -> int:
    m = spherical.parse_gram_matrix(_read(args.path))
    sph = spherical.from_gram(m, args.tol, max_dense=args.max_dense)
    rep = spherical.verify_sphere_theorem(
        sph, args.tol, route=args.route, declared_d=args.declared_d)
    if args.json:
        _write(reports_to_json([rep], subject=args.path, tolerance=args.tol), args.output)
        return 1 if rep.status == "fail" else 0
    lines = [
        f"gram: {args.path}",
        f"points: {sph.n}   dimension: {sph.dimension}   distinct products: {sph.s}",
        "values: " + "  ".join(_fmt(v) for v in sph.values),
        rep.line(),
    ]
    _write("\n".join(lines) + "\n", args.output)
    return 1 if rep.status == "fail" else 0


def _parse_span(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_txt, hi_txt = text.split("..", 1)
        lo, hi = int(lo_txt), int(hi_txt)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def cmd_bounds(args) -> int:
    lo, hi = _parse_span(args.second)
    lines = []
    for dv in range(lo, hi + 1):
        if args.kind == "moore":
            lines.append(f"M({args.first}, {dv}) = {moore_bound(args.first, dv)}")
        else:
            lines.append(f"N({args.first}, {dv}) = {spherical.absolute_bound(args.first, dv)}")
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _scan_member(family: str, fixed: int, t: int) -> generators.FamilySpec:
    if family == "johnson":
        return generators.FamilySpec("johnson", (t, fixed))
    return generators.FamilySpec("hamming", (fixed, t))


def _threshold_line(label: str, pname: str, outcomes) -> str:
    trues = [t for t, ok in outcomes if ok]
    falses = [t for t, ok in outcomes if not ok]
    if not trues:
        return f"{label}: never true for {pname} in range"
    first = min(trues)
    monotone = all(ok for t, ok in outcomes if t >= first)
    parts = [f"{label}: first true at {pname} = {first}"]
    below = [t for t in falses if t < first]
    if below:
        parts.append(f"largest not-true at {pname} = {max(below)}")
    parts.append(f"monotone beyond first success: {'yes' if monotone else 'NO'}")
    return "; ".join(parts)


def cmd_scan(args) -> int:
    m = re.fullmatch(r"(johnson|hamming)(\d+)", args.family.lower())
    if m is None:
        raise ValueError(
            f"unknown scan family {args.family!r}; expected e.g. johnson3 or hamming3")
    family, fixed = m.group(1), int(m.group(2))
    lo, hi = _parse_span(args.range)
    pname = "n" if family == "johnson" else "q"
    rows = []
    p_outcomes = []
    q_outcomes = []
    for t in range(lo, hi + 1):
        try:
            spec = _scan_member(family, fixed, t)
            params = generators.family_parameters(spec)
            pv = polyprops.check_p_large(params, 1)
            qv = polyprops.check_q_large(params, 1)
        except (AnalysisError, ValueError) as exc:
            rows.append({"param": t, "error": str(exc)})
            p_outcomes.append((t, False))
            q_outcomes.append((t, False))
            continue
        rows.append({
            "param": t,
            "n": params.n,
            "degree": params.degrees[1],
            "moore_bound": pv.evidence["bound"],
            "p_status": pv.status,
            "multiplicity": params.multiplicities[1],
            "absolute_bound": qv.evidence["bound"],
            "q_status": qv.status,
        })
        p_outcomes.append((t, pv.status == polyprops.POLYNOMIAL))
        q_outcomes.append((t, qv.status == polyprops.POLYNOMIAL))
    p_line = _threshold_line("P-condition", pname, p_outcomes)
    q_line = _threshold_line("Q-condition", pname, q_outcomes)
    if args.json:
        _write(reports_to_json(
            [], family=args.family, range=[lo, hi], rows=rows,
            p_summary=p_line, q_summary=q_line), args.output)
        return 0
    head = (f"{pname:>4}  {'points':>10}  {'k_1':>6}  {'M(k_1,d-1)':>12}  {'P-size':>13}"
            f"  {'m_1':>6}  {'N(m_1,d-1)':>12}  {'Q-size':>13}")
    lines = [f"scan {family}({pname}, {fixed})" if family == "johnson"
             else f"scan {family}({fixed}, {pname})", head]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['param']:>4}  error: {r['error']}")
            continue
        lines.append(f"{r['param']:>4}  {r['n']:>10}  {r['degree']:>6}  {r['moore_bound']:>12}"
                     f"  {r['p_status']:>13}  {r['multiplicity']:>6}  {r['absolute_bound']:>12}"
                     f"  {r['q_status']:>13}")
    lines.append(p_line)
    lines.append(q_line)
    _write("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyscheme",
        description="Spectral verification for regular graphs, association "
                    "schemes, and spherical point sets.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="numerical tolerance (default 1e-9)")
        p.add_argument("--max-dense", type=int, default=DEFAULT_MAX_DENSE,
                       help="largest dense matrix side accepted")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("-o", "--output", help="output file (default stdout)")
        if seeds:
            p.add_argument("--seed-set", choices=sorted(schemes.SEED_SETS), default="default",
                           help="seed set for generic-element draws")

    g = sub.add_parser("gen", help="emit a catalog object as text")
    g.add_argument("family", help="cycle, complete, petersen, hoffman-singleton, "
                                  "paley, johnson, hamming")
    g.add_argument("params", nargs="*", type=int, help="family parameters")
    g.add_argument("--as", dest="kind", choices=("graph", "scheme", "tensor"),
                   help="output form (default: scheme for johnson/hamming, else graph)")
    g.add_argument("-o", "--output", help="output file (default stdout)")
    g.set_defaults(func=cmd_gen)

    ag = sub.add_parser("analyze-graph", help="theorem checks on an edge-list file")
    ag.add_argument("path", help="edge-list file, or - for stdin")
    common(ag)
    ag.set_defaults(func=cmd_analyze_graph)

    as_ = sub.add_parser("analyze-scheme", help="theorem checks on a relation matrix")
    as_.add_argument("path", help="relation-matrix file (or tensor with --parametric)")
    as_.add_argument("--parametric", action="store_true",
                     help="input is an intersection-number tensor")
    common(as_, seeds=True)
    as_.set_defaults(func=cmd_analyze_scheme)

    agr = sub.add_parser("analyze-gram", help="sphere theorem checks on a Gram matrix")
    agr.add_argument("path", help="Gram-matrix file, or - for stdin")
    agr.add_argument("--route", choices=("size", "schur"), default="size",
                     help="hypothesis route: size bound or Schur-diameter")
    agr.add_argument("--declared-d", type=int, default=None,
                     help="declared upper bound on the distinct-product count")
    common(agr)
    agr.set_defaults(func=cmd_analyze_gram)

    b = sub.add_parser("bounds", help="print degree/diameter or dimension bounds")
    b.add_argument("kind", choices=("moore", "absolute"))
    b.add_argument("first", type=int, help="degree k (moore) or dimension m (absolute)")
    b.add_argument("second", help="diameter/distance count, a single value or lo..hi")
    b.add_argument("-o", "--output", help="output file (default stdout)")
    b.set_defaults(func=cmd_bounds)

    sc = sub.add_parser("scan", help="threshold scan over a parametric family")
    sc.add_argument("family", help="johnson3 scans J(n, 3); hamming3 scans H(3, q)")
    sc.add_argument("range", help="parameter range lo..hi")
    sc.add_argument("--json", action="store_true")
    sc.add_argument("-o", "--output")
    sc.set_defaults(func=cmd_scan)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AnalysisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
