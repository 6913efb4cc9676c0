"""One benchmark process: python3 perfbench/worker.py PLAN.json

Imports polyscheme from the plan's source directory, makes one untimed
warm-up call, prints "ready", then times whole rounds of polyscheme.cli.main
calls.  Each round calls every operation once; rounds go on until the time
spent is as close to the plan's budget as whole rounds allow, and there is
at least one.  Results go to the plan's result file as JSON.

With tracing on, every other round runs with the functions named in
TRACED wrapped in span recorders, so the untraced rounds of the same
process give the tracing overhead.  This process never imports the
benchmark's input generators.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

# Span name -> (module, attribute).  A function is wrapped in every
# polyscheme module that imported it, so calls are seen wherever the name
# is looked up (distance_data in cli, polyprops and generators, for one).
TRACED = {
    "cli.main": ("polyscheme.cli", "main"),
    "graphs.parse_edge_list": ("polyscheme.graphs", "parse_edge_list"),
    "graphs.distance_data": ("polyscheme.graphs", "distance_data"),
    "graphs.girth": ("polyscheme.graphs", "girth"),
    "graphs.spectral_projectors": ("polyscheme.graphs", "spectral_projectors"),
    "graphs.verify_projector_entries": ("polyscheme.graphs", "verify_projector_entries"),
    "graphs.large_graph_report": ("polyscheme.graphs", "large_graph_report"),
    "schemes.parse_relation_matrix": ("polyscheme.schemes", "parse_relation_matrix"),
    "schemes.parse_intersection_tensor": ("polyscheme.schemes", "parse_intersection_tensor"),
    "schemes.validate_scheme": ("polyscheme.schemes", "validate_scheme"),
    "schemes.idempotents": ("polyscheme.schemes", "idempotents"),
    "schemes.eigenmatrices": ("polyscheme.schemes", "eigenmatrices"),
    "schemes.krein_parameters": ("polyscheme.schemes", "krein_parameters"),
    "schemes.parametric_parameters": ("polyscheme.schemes", "parametric_parameters"),
    "polyprops.p_polynomial_ordering": ("polyscheme.polyprops", "p_polynomial_ordering"),
    "polyprops.q_polynomial_ordering": ("polyscheme.polyprops", "q_polynomial_ordering"),
    "polyprops.check_p_large": ("polyscheme.polyprops", "check_p_large"),
    "spherical.parse_gram_matrix": ("polyscheme.spherical", "parse_gram_matrix"),
    "spherical.from_gram": ("polyscheme.spherical", "from_gram"),
    "spherical.schur_diameter": ("polyscheme.spherical", "schur_diameter"),
    "spherical.verify_sphere_theorem": ("polyscheme.spherical", "verify_sphere_theorem"),
    "numerics.eigen_clusters": ("polyscheme.numerics", "eigen_clusters"),
    "numerics.rank_tol": ("polyscheme.numerics", "rank_tol"),
    "reports.reports_to_json": ("polyscheme.reports", "reports_to_json"),
}
# The numpy eigensolvers polyscheme calls, as one kernel layer.
EIGENSOLVERS = ("eigh", "eigvalsh", "eig")


class Tracer:
    """Spans [name, start, end, parent index] kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        import numpy.linalg

        package = [m for key, m in list(sys.modules.items())
                   if key == "polyscheme" or key.startswith("polyscheme.")]
        for name, (modname, attr) in TRACED.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original, wrapper))
        for attr in EIGENSOLVERS:
            original = getattr(numpy.linalg, attr)
            self._patched.append((numpy.linalg, attr, original,
                                  self.wrap("linalg.eigensolve", original)))
        self.enable(True)

    def enable(self, on: bool) -> None:
        for module, key, original, wrapper in self._patched:
            setattr(module, key, wrapper if on else original)

    def take_round(self) -> tuple[dict, list[list]]:
        """Per-name calls, inclusive and self seconds of the spans recorded
        since the last call; returns them with the spans and starts afresh."""
        spans, self.spans = self.spans, []
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        summary: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(spans, child_time):
            entry = summary.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["inclusive_s"] += end - start
            entry["self_s"] += end - start - inner
        return summary, spans


def run_op(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from polyscheme import cli

    rc, _, err, _ = run_op(cli, plan["ops"][0]["argv"])
    if rc != 0:
        print(f"warm-up operation failed ({rc}): {err}", file=sys.stderr)
    print("ready", flush=True)

    tracer = Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()
    rounds = []
    outputs: dict[str, list[dict]] = {op["key"]: [] for op in plan["ops"]}
    last_spans: list[list] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer:
            tracer.enable(traced)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        results = [run_op(cli, op["argv"]) for op in plan["ops"]]
        record = {"wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0,
                  "traced": traced, "op_s": [secs for *_, secs in results]}
        for op, (rc, text, err, _) in zip(plan["ops"], results):
            seen = outputs[op["key"]]
            match = next((o for o in seen if o["rc"] == rc and o["stdout"] == text), None)
            if match is None:
                match = {"rc": rc, "stdout": text, "stderr": err, "rounds": 0}
                seen.append(match)
            match["rounds"] += 1
        if traced:
            record["trace"], last_spans = tracer.take_round()
        rounds.append(record)
        # Stop when another round would likely end further past the budget
        # than the budget is away now.
        kinds = {r["traced"] for r in rounds}
        halfway = time.perf_counter() - start + record["wall_s"] / 2
        if halfway > plan["budget_s"] and (not tracer or len(kinds) == 2):
            break

    result = {
        "rounds": rounds,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": last_spans,
        "environment": environment(),
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
