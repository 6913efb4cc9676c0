"""Shared catalog: the worked graphs and schemes every suite draws from.

Objects are built once per session and cached; tests must not mutate them.
"""

import functools
from collections import namedtuple

import numpy as np
import pytest

from polyscheme.generators import FamilySpec, build_graph, build_scheme
from polyscheme.numerics import as_sym
from polyscheme.schemes import eigenmatrices, idempotents, validate_scheme

GRAPH_SPECS = {
    "complete4": FamilySpec("complete", (4,)),
    "cube": FamilySpec("hamming", (3, 2)),
    "cycle5": FamilySpec("cycle", (5,)),
    "cycle6": FamilySpec("cycle", (6,)),
    "hoffman-singleton": FamilySpec("hoffman-singleton"),
    "paley13": FamilySpec("paley", (13,)),
    "petersen": FamilySpec("petersen"),
    "triangular5": FamilySpec("johnson", (5, 2)),
}

SCHEME_SPECS = {
    "complete4": FamilySpec("complete", (4,)),
    "cube": FamilySpec("hamming", (3, 2)),
    "cycle5": FamilySpec("cycle", (5,)),
    "cycle6": FamilySpec("cycle", (6,)),
    "hamming33": FamilySpec("hamming", (3, 3)),
    "hoffman-singleton": FamilySpec("hoffman-singleton"),
    "johnson83": FamilySpec("johnson", (8, 3)),
    "paley13": FamilySpec("paley", (13,)),
    "petersen": FamilySpec("petersen"),
}

AnalyzedScheme = namedtuple("AnalyzedScheme", "name rel p idems params")


def max_abs_diff(x, y) -> float:
    """Largest entrywise difference of two symmetric matrices."""
    return float(np.max(np.abs(as_sym(x).a - as_sym(y).a)))


@functools.cache
def catalog_graph(name):
    return build_graph(GRAPH_SPECS[name])


@functools.cache
def analyzed_scheme(name):
    rel = build_scheme(SCHEME_SPECS[name])
    p = validate_scheme(rel)
    idems = idempotents(rel)
    params = eigenmatrices(rel, idems, p=p)
    return AnalyzedScheme(name, rel, p, idems, params)


@pytest.fixture(params=sorted(GRAPH_SPECS))
def named_graph(request):
    return request.param, catalog_graph(request.param)


@pytest.fixture(params=sorted(SCHEME_SPECS))
def scheme_case(request):
    return analyzed_scheme(request.param)
