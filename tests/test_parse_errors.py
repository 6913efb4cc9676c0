"""Every refusal of the four text formats, with its full message and line;
the row reader against a token-by-token oracle, on mixed and on heavily
repeated tokens; and each integer format's numpy rows against its line
reader, on hostile text.

Each table row is (parser, text, keyword arguments, line, message).  Line
None marks a header refused by the dense limit: the row after it is
malformed, so reading any row before the refusal would raise a ParseError
instead.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscheme import errors
from polyscheme.errors import DenseLimitError, IntRangeError, ParseError
from polyscheme.generators import FamilySpec, build_scheme
from polyscheme.graphs import parse_edge_list
from polyscheme.schemes import (
    eigenmatrices,
    idempotents,
    parse_intersection_tensor,
    parse_relation_matrix,
    validate_scheme,
)
from polyscheme.spherical import format_gram_matrix, parse_gram_matrix

DENSE = "dense computation refused for n={} > limit {}; raise the limit explicitly to proceed"


def few_distance_rows(n, tokens=("1.0", "0.5")):
    """The n rows of a two-distance matrix, tokens[0] on the diagonal and
    tokens[1] elsewhere: blocks of such Gram rows take read_rows'
    distinct-token path."""
    return [" ".join(tokens[i != j] for j in range(n)) for i in range(n)]


# Faults on line 30 of 40-row files whose tokens repeat: in the Gram, the
# block holding the fault is one that read_rows converts by distinct tokens.
GRAM_40 = few_distance_rows(40)
GRAM_40_BAD = GRAM_40[28].replace("0.5", "x", 1)
RELATION_40 = few_distance_rows(40, ("0", "1"))
RELATION_40_BIG = RELATION_40[28].replace("1", "100000000000000000000000", 1)

EDGE_LIST = [
    ("", {}, 0, "empty edge-list file"),
    ("# only a comment\n\n", {}, 0, "empty edge-list file"),
    ("3\n", {}, 1, "expected two integers, got '3'"),
    ("3 x\n", {}, 1, "expected two integers, got '3 x'"),
    ("3 1\n0 x\n", {}, 2, "expected two integers, got '0 x'"),
    ("3 1\n0 1 2\n", {}, 2, "expected two integers, got '0 1 2'"),
    ("3 1\n0 1.0\n", {}, 2, "expected two integers, got '0 1.0'"),
    ("3 2\n0 1\n", {}, 0, "header declares 2 edges but 1 found"),
    ("0 0\n", {}, 0, "graph needs at least one vertex"),
    ("3 1\n0 3\n", {}, 0, "edge (0, 3) out of range for n=3"),
    ("3 1\n-1 2\n", {}, 0, "edge (-1, 2) out of range for n=3"),
    ("3 1\n0 99999999999999999999\n", {}, 0,
     "edge (0, 99999999999999999999) out of range for n=3"),
    ("3 1\n1 1\n", {}, 0, "self-loop at vertex 1"),
    ("3 2\n0 1\n1 0\n", {}, 0, "duplicate edge (1, 0)"),
    ("3 2\n0 1\n0 1\n", {}, 0, "duplicate edge (0, 1)"),
    # The first offending edge in file order is named, whatever its kind.
    ("4 2\n2 2\n0 9\n", {}, 0, "self-loop at vertex 2"),
    ("4 2\n0 9\n2 2\n", {}, 0, "edge (0, 9) out of range for n=4"),
    ("4 3\n0 1\n1 0\n2 2\n", {}, 0, "duplicate edge (1, 0)"),
    ("4 3\n0 1\n3 3\n1 0\n", {}, 0, "self-loop at vertex 3"),
    ("4 1\n5 5\n", {}, 0, "edge (5, 5) out of range for n=4"),
    ("# a graph\r\n3 1\r\n\r\n0 x  # bad\r\n", {}, 4, "expected two integers, got '0 x'"),
    ("3 1  # n m\n# c\n\n0 0\n", {}, 0, "self-loop at vertex 0"),
    ("20 1\n0 x\n", {"max_dense": 12}, None, DENSE.format(20, 12)),
    ("99999999999999999999 1\n0 x\n", {}, None, DENSE.format(99999999999999999999, 5000)),
]

RELATION_MATRIX = [
    ("", {}, 0, "empty relation-matrix file"),
    ("2\n0 1\n1 0\n", {}, 1, "header must be 'n d'"),
    ("2 x\n", {}, 1, "expected integers, got '2 x'"),
    ("2 1\n0 x\nx 0\n", {}, 2, "expected integers, got '0 x'"),
    ("3 1\n0 x\n", {}, 2, "expected integers, got '0 x'"),
    ("3 1\n0 1\n1 0 1\n1 1 0\n", {}, 2, "expected 3 labels, got 2"),
    ("2 1\n0 1 0\n1 0\n", {}, 2, "expected 2 labels, got 3"),
    ("2 1\n0 1\n", {}, 0, "header declares 2 rows but 1 found"),
    ("2 1\n0 1\n1 0\n1 0\n", {}, 0, "header declares 2 rows but 3 found"),
    ("2 1\n0 1\n1 100000000000000000000000\n", {}, 3,
     "value 100000000000000000000000 outside the 64-bit integer range"),
    ("2 1\n0 -9223372036854775809\n1 0\n", {}, 2,
     "value -9223372036854775809 outside the 64-bit integer range"),
    ("2 1\n0 -1\n1 0\n", {}, 0, "labels must be nonnegative"),
    ("2 1\n0 5\n1 0\n", {}, 0, "label 5 exceeds declared class count 1"),
    ("1 1\n0\n", {}, 0, "schemes need at least two points"),
    ("2 0\n0 0\n0 0\n", {}, 0, "schemes need at least one class besides the identity"),
    ("# C_3\r\n3 1\r\n0 1 1  # row 0\r\n\r\n1 0\r\n1 1 0\r\n", {}, 5, "expected 3 labels, got 2"),
    ("4 1\n0 1 1 1\n1 0 x 1\n1 1 0 1\n1 1 1 0\n", {"max_dense": 3}, None, DENSE.format(4, 3)),
    ("6000 2\n0 x\n", {}, None, DENSE.format(6000, 5000)),
    # No row at all, under a width no numpy row holds.
    ("99999999999999999999 1\n", {"max_dense": None}, 0,
     "header declares 99999999999999999999 rows but 0 found"),
    ("40 1\n" + "\n".join(RELATION_40[:28] + [RELATION_40_BIG] + RELATION_40[29:]) + "\n", {},
     30, "value 100000000000000000000000 outside the 64-bit integer range"),
]

INTERSECTION_TENSOR = [
    ("# nothing\n", {}, 0, "empty tensor file"),
    ("3\n", {}, 1, "header must be 'n d'"),
    ("3 x\n", {}, 1, "expected integers, got '3 x'"),
    ("3 -4\n", {}, 1, "schemes need at least one class besides the identity"),
    ("6 2\n1 2 3\n", {}, 2, "tensor entries are 'i j k value'"),
    ("6 2\n0 0 0 x\n", {}, 2, "expected integers, got '0 0 0 x'"),
    ("6 2\n0 0 5 1\n", {}, 2, "indices (0, 0, 5) outside 0..2"),
    ("6 2\n0 0 -1 1\n", {}, 2, "indices (0, 0, -1) outside 0..2"),
    ("10 2\n0 0 0 8\n0 0 0 1\n", {}, 3, "second entry for (0, 0, 0)"),
    ("3 1\n0 0 0 99999999999999999999\n", {}, 2,
     "value 99999999999999999999 outside the 64-bit integer range"),
    ("3 100000\n0 0 0 1\n", {}, 1,
     "header declares 100000 classes, which need at least (d+1)^2 = 10000200001 "
     "entry lines, but 1 follow"),
    ("# K_3\r\n3 1\r\n\r\n0 0 0 1  # identity\r\n0 1 1 1\r\n0 1 1 1\r\n", {}, 6,
     "second entry for (0, 1, 1)"),
    # Entry lines are numbered past comments, blank lines and every break
    # of str.splitlines, though the rows are read without their numbers.
    ("# K_3\n3 1\n# entries\n\n0 0 0 1\n  # none\n0 1 1 2\n\n0 1 2 1\n", {}, 9,
     "indices (0, 1, 2) outside 0..1"),
    ("3 1\v0 0 0 1\f# c\x1c\x1d0 1 1 2\x1e\x85\u20280 0 0 1  # again\n", {}, 8,
     "second entry for (0, 0, 0)"),
    ("3 1  # n d\r\n\r\n0 0 0 1\r0 -1 1 2 # below\r\n", {}, 4,
     "indices (0, -1, 1) outside 0..1"),
    ("3 1\n\n# c\n0 1 1 2\n# c\n\n0 1 1 2\n", {}, 7, "second entry for (0, 1, 1)"),
    ("3 1\n\n0 0 0 1\n\n0 0 0 x\n", {}, 5, "expected integers, got '0 0 0 x'"),
    ("3 1\n# c\n0 0 0 1\n# c\n0 0 1\n", {}, 5, "tensor entries are 'i j k value'"),
]

GRAM_MATRIX = [
    ("", {}, 0, "empty input"),
    ("x\n", {}, 1, "bad count 'x'"),
    ("2 2\n", {}, 1, "expected a single count, got '2 2'"),
    ("0\n", {}, 1, "count must be positive, got 0"),
    ("2\n1.0 zz\nzz 1.0\n", {}, 2, "bad entry in '1.0 zz'"),
    ("3\n1.0 zz\n", {}, 2, "bad entry in '1.0 zz'"),
    ("2\n1.0 0.0\n0.0 1.0 3.0\n", {}, 3, "expected 2 entries, got 3"),
    ("3\n1.0 0.0 0.0\n", {}, 0, "expected 3 rows, got 1"),
    ("2\n1.0 0.0\n0.0 1.0\n0.5 0.5\n", {}, 4, "more than 2 rows"),
    ("2\n1.0 0.0\n0.0 1.0\nzz\n", {}, 4, "more than 2 rows"),
    ("2\n1.0 0.0\n0.0 nan\n", {}, 3, "entries must be finite"),
    ("2\n1.0 inf\ninf 1.0\n", {}, 2, "entries must be finite"),
    ("2\n1 1e400\n1e400 1\n", {}, 2, "entries must be finite"),
    ("# two points\r\n2\r\n\r\n1.0 0.5  # row\r\n0.5 -inf\r\n", {}, 5, "entries must be finite"),
    ("99999999999999999999\n1\n", {"max_dense": None}, 2,
     "expected 99999999999999999999 entries, got 1"),
    ("4\n1 0 0 0\n0 1 zz 0\n0 0 1 0\n0 0 0 1\n", {"max_dense": 3}, None, DENSE.format(4, 3)),
    ("6000\n1 zz\n", {}, None, DENSE.format(6000, 5000)),
    ("99999999999999999999\n", {"max_dense": None}, 0, "expected 99999999999999999999 rows, got 0"),
    ("40\n" + "\n".join(GRAM_40[:28] + [GRAM_40_BAD] + GRAM_40[29:]) + "\n", {},
     30, f"bad entry in {GRAM_40_BAD!r}"),
    ("40\n" + "\n".join(GRAM_40[:28] + [GRAM_40[28] + " 0.5"] + GRAM_40[29:]) + "\n", {},
     30, "expected 40 entries, got 41"),
]

TABLE = [
    pytest.param(parse, text, kwargs, line, message, id=f"{parse.__name__}-{i}")
    for parse, rows in ((parse_edge_list, EDGE_LIST),
                        (parse_relation_matrix, RELATION_MATRIX),
                        (parse_intersection_tensor, INTERSECTION_TENSOR),
                        (parse_gram_matrix, GRAM_MATRIX))
    for i, (text, kwargs, line, message) in enumerate(rows)
]


@pytest.mark.parametrize("parse, text, kwargs, line, message", TABLE)
def test_parse_error_table(parse, text, kwargs, line, message):
    with pytest.raises(DenseLimitError if line is None else ParseError) as info:
        parse(text, **kwargs)
    if line is None:
        assert str(info.value) == message
    else:
        assert (info.value.line_no, str(info.value)) == (line, f"line {line}: {message}")


def read_rows_reference(rows, dtype, width):
    """Oracle for the row readers: each row parsed token by token.  Returns
    the values as lists, or the (kind, line) of the first offending row."""
    convert = float if dtype is float else int
    out = []
    for line_no, tokens in rows:
        try:
            values = [convert(tok) for tok in tokens]
        except ValueError:
            return "token", line_no
        if len(tokens) != width:
            return "width", line_no
        if any(not -2**63 <= v < 2**63 for v in values if convert is int):
            return "range", line_no
        out.append(values)
    return out


TOKENS = ["0", "7", "-3", "+12", "1_0", "x", "1.5", "nan", "-inf", "1e400",
          "9223372036854775807", "9223372036854775808", "-99999999999999999999"]


def check_read_rows(token_rows, dtype, width, block):
    """errors.read_rows, converting by int (int64 rows) or float in blocks
    of about block tokens, against the oracle on a text of the rows with a
    blank line before each.  The same values bit for bit (so -0.0 is not
    0.0), or the same first fault on the same line."""
    rows = [(2 * i + 3, tokens) for i, tokens in enumerate(token_rows)]
    want = read_rows_reference(rows, dtype, width)
    if isinstance(want, list):
        want = np.array(want, dtype=dtype).reshape(-1, width).view(np.int64).tolist()
    text = "0\n" + "".join(f"\n{' '.join(tokens)}\n" for _, tokens in rows)
    saved, errors._BLOCK_TOKENS = errors._BLOCK_TOKENS, block
    try:
        header_line, _, lines = errors.read_header(text, "empty", 1, "header", "header")
        values = errors.read_rows(text, header_line, lines, width,
                                  float if dtype is float else int, "token {row!r}",
                                  "width {count}")
        assert values.shape == (len(rows), width) and values.dtype == dtype
        got = values.view(np.int64).tolist()
    except IntRangeError as exc:
        got = "range", exc.line_no
    except ParseError as exc:
        got = str(exc).split(": ", 1)[1].split()[0], exc.line_no
    finally:
        errors._BLOCK_TOKENS = saved
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4), max_size=10),
       st.sampled_from([np.int64, float]), st.integers(1, 3), st.integers(1, 5))
def test_read_rows_matches_a_per_token_parse(token_rows, dtype, width, block):
    # Blocks of a few tokens put block ends between every pair of rows.
    check_read_rows(token_rows, dtype, width, block)


# Small pools of these give blocks whose tokens repeat, which float rows
# convert once per distinct token; int64 rows go through numpy.
REPEATED_TOKENS = {
    float: ["1.0", "0.5", "-0.0", "0.0", "1_0", "inf", "-inf", "nan", "1e-320",
            "0.3999999999999998", "1e400", "x"],
    np.int64: ["0", "1", "-3", "+12", "1_0", "9223372036854775807", "-9223372036854775808",
               "9223372036854775808", "-9223372036854775809", "1.5", "x"],
}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([np.int64, float]), st.integers(1, 40),
       st.sampled_from([1, 16, 64, 200, 1 << 14]))
def test_read_rows_on_repeated_tokens_matches_a_per_token_parse(data, dtype, width, block):
    # Blocks of 1 to 200 tokens put a fault in a later block than the first.
    pool = data.draw(st.lists(st.sampled_from(REPEATED_TOKENS[dtype]), min_size=1, max_size=3,
                              unique=True))
    row_length = st.sampled_from([width] * 8 + [max(1, width - 1), width + 1])
    token_rows = data.draw(st.lists(row_length.flatmap(
        lambda k: st.lists(st.sampled_from(pool), min_size=k, max_size=k)), max_size=12))
    check_read_rows(token_rows, dtype, width, block)


def test_computed_gram_takes_the_distinct_conversion(monkeypatch):
    # The J(12,2) eigenspace Gram (n/m_1) U_1 U_1^T of the eigensolve's
    # block has computed entries, so its first tokens are mostly distinct;
    # every block still converts each distinct token once, to the value
    # float() gives it.
    rel = build_scheme(FamilySpec("johnson", (12, 2)))
    params = eigenmatrices(validate_scheme(rel), rel.n)
    u = idempotents(rel, params)[1]
    computed = format_gram_matrix(rel.n / params.multiplicities[1] * (u @ u.T))
    calls = []
    block = errors._float_block
    monkeypatch.setattr(errors, "_float_block",
                        lambda lines, width: calls.append(width) or block(lines, width))
    rereads = []
    row_values = errors._row_values
    monkeypatch.setattr(errors, "_row_values",
                        lambda line_no, *args: rereads.append(line_no) or row_values(line_no, *args))
    got = parse_gram_matrix(computed)
    assert calls == [rel.n]  # 66 rows of 66 tokens make one block
    assert rereads == [1]  # the header only
    want = np.array([[float(t) for t in line.split()] for line in computed.splitlines()[1:]])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("parse, rows, bad, width, message", [
    (parse_edge_list, ["500 100001"] + [f"{u} {v}" for u, v in itertools.islice(
        itertools.combinations(range(500), 2), 100_000)], "0 x", 2,
     "expected two integers, got '0 x'"),
    (parse_relation_matrix, ["300 1"] + few_distance_rows(300, ("0", "1"))[:-1],
     " ".join(["1"] * 299 + ["x"]), 300, "expected integers, got {!r}"),
])
def test_a_bad_last_line_rereads_only_its_block(monkeypatch, parse, rows, bad, width, message):
    # numpy refuses the whole text, then each block; only the last block's
    # lines, and the header's, are read again token by token.
    text, line = "\n".join(rows + [bad]) + "\n", len(rows) + 1
    calls = []
    row_values = errors._row_values
    monkeypatch.setattr(errors, "_row_values",
                        lambda line_no, *args: calls.append(line_no) or row_values(line_no, *args))
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"line {line}: " + message.format(" ".join(bad.split()))
    assert len(calls) <= 1 + errors._BLOCK_TOKENS // width
    assert calls[0] == 1 and calls[-1] == line


# Hostile pieces of integer rows: signs, "_", ".", "e", Arabic-Indic digits
# and values past int64 among the tokens; the in-line whitespace of
# str.split; and every line break of str.splitlines, several of which
# numpy would read as in-line whitespace in a whole text.
SMALL_TOKENS = ["0", "1", "2", "3"]
HOSTILE_TOKENS = SMALL_TOKENS + [
    "+1", "-1", "-0", "007", "1_0", "1.0", "1e1", ".", "e", "_", "-", "+", "+-1",
    "\u0661", "\u0662\u0660", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999"]
SPACES = [" ", "  ", "\t", "\x1f", "\xa0"]
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


@st.composite
def hostile_body(draw, width):
    """Lines after a header: rows of about width tokens, from small
    integers only or from the hostile tokens, with blank and comment lines
    among them, joined by any line break; possibly no line at all."""
    tokens = st.sampled_from(draw(st.sampled_from([SMALL_TOKENS, HOSTILE_TOKENS])))
    space = st.sampled_from(SPACES)
    lines = []
    for kind in draw(st.lists(st.sampled_from(["row"] * 4 + ["blank", "comment"]), max_size=6)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t\xa0"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# 1 2", " #x"])))
        else:
            count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
            row = draw(st.lists(tokens, min_size=count, max_size=count))
            line = "".join(draw(space) + tok for tok in row)
            lines.append(line + draw(st.sampled_from(["", "", " # note", "#1 2"])))
    return "".join(draw(st.sampled_from(BREAKS)) + line for line in lines) + \
        draw(st.sampled_from(["", "\n"]))


def parse_outcome(parse, text):
    """What parse makes of text: its value as lists, or its refusal."""
    try:
        out = parse(text)
    except errors.AnalysisError as exc:
        return type(exc).__name__, str(exc)
    if parse is parse_edge_list:
        return out.n, out.edges.tolist()
    if parse is parse_relation_matrix:
        return out.d, out.labels.tolist()
    p, n = out
    return n, p.tolist()


def line_reader_outcome(parse, text):
    """parse_outcome with numpy's row reader refusing every text, so that
    all rows take the line-by-line re-read."""
    def refuse(*args, **kwargs):
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return parse_outcome(parse, text)


INTEGER_FORMATS = {
    "edge list": (parse_edge_list, ["3 0", "3 1", "3 2", "4 3"], 2),
    "relation matrix": (parse_relation_matrix, ["2 1", "3 1", "3 2"], None),
    "tensor": (parse_intersection_tensor, ["3 1", "6 2"], 4),
}


@pytest.mark.parametrize("fmt", sorted(INTEGER_FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_rows_match_the_line_reader(fmt, data):
    parse, headers, width = INTEGER_FORMATS[fmt]
    header = data.draw(st.sampled_from(headers))
    text = header + data.draw(hostile_body(width or int(header.split()[0])))
    assert parse_outcome(parse, text) == line_reader_outcome(parse, text)


@pytest.mark.parametrize("parse, text", [
    (parse_edge_list, "3 2\x850\x1f1\xa0# a\v\f1\t2 # b\u2028"),
    (parse_relation_matrix, "2 1 # n d\x1c0 1\r\n\r\n# row 1\x1d+1 -0\x1e"),
    (parse_intersection_tensor, "3 1\r0 0 0 1\n\n0 1 1 1 #\v1 0 1 1\f1\x1f1 0 2\x851 1 1 1\u2028"),
])
def test_hostile_whitespace_stays_on_numpy_rows(monkeypatch, parse, text):
    # Rows that numpy reads are never read again: the text is split once.
    want = line_reader_outcome(parse, text)
    assert not isinstance(want[0], str)
    assert split_count(monkeypatch, parse, text) == (want, 1)


@pytest.mark.parametrize("parse, text", [
    (parse_edge_list, "# a triangle\n3 3\n0 1\n1 2\n2 0\n"),
    (parse_relation_matrix, "2 1\n0 1\n1 0\n"),
    (parse_intersection_tensor, "2 1\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n"),
])
def test_accepted_integer_text_is_split_once(monkeypatch, parse, text):
    # The header and the rows come from one pass of the line splitter.
    want = parse_outcome(parse, text)
    assert not isinstance(want[0], str)
    assert split_count(monkeypatch, parse, text) == (want, 1)


def split_count(monkeypatch, parse, text):
    """parse_outcome of text, and how many times the text was split into lines."""
    calls = []
    split = errors._split_lines

    def counted(text):
        calls.append(text)
        return split(text)

    monkeypatch.setattr(errors, "_split_lines", counted)
    return parse_outcome(parse, text), len(calls)
