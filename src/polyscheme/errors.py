"""Exception types shared across the package, and the line and row
readers of the text formats, whose ParseErrors carry line numbers."""

import itertools
import sys
import warnings

import numpy as np


class AnalysisError(Exception):
    """Base class for structured analysis failures."""


class ToleranceAmbiguityError(AnalysisError):
    """Clustering cannot decide a split at the given tolerance.

    Raised when two values are separated by a gap in (tol, 2*tol], or when
    a chain of nearby values drifts further apart than tol.
    """


class DenseLimitError(AnalysisError):
    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(
            f"dense computation refused for n={n} > limit {limit}; "
            f"raise the limit explicitly to proceed"
        )


class SchemeAxiomError(AnalysisError):
    """A relation partition violates one of the defining scheme axioms."""

    def __init__(self, axiom: int, message: str, witnesses=()):
        self.axiom = axiom
        self.witnesses = list(witnesses)
        super().__init__(f"axiom {axiom}: {message}")


class DegenerateElementError(AnalysisError):
    """Every seeded generic algebra element had too few distinct eigenvalues."""


class MethodsDisagreeError(AnalysisError):
    """Two routes that must agree produced different answers."""


class SchurDisconnectedError(AnalysisError):
    def __init__(self, max_degree: int):
        self.max_degree = max_degree
        super().__init__(
            f"no full-rank combination of entrywise powers up to degree {max_degree}"
        )


class GraphStructureError(AnalysisError):
    """The graph lacks structure required by the operation (regularity, connectivity)."""


class GramError(AnalysisError):
    """The matrix is not the Gram matrix of distinct unit vectors."""


class ParseError(AnalysisError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class IntRangeError(ParseError):
    """A row of integers, values, holding big, which no 64-bit integer holds."""

    def __init__(self, line_no: int, values: list[int], big: int):
        self.values = values
        super().__init__(line_no, f"value {big} outside the 64-bit integer range")


# Characters per block of text that the line reader splits at once.
_BLOCK = 1 << 16


def _split_lines(text: str):
    """The lines of text.splitlines(), one at a time.  The text is split in
    blocks of about _BLOCK characters, each ending just after a "\n",
    which always ends a line, so no copy of the whole text is made unless
    it has no "\n"."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK)
        end = len(text) if end < 0 else end + 1
        yield from text[start:end].splitlines()
        start = end


def content_lines(text: str, after: int = 0):
    """Yield (line_no, tokens) for each line after the first `after` that
    keeps a token once its "#" comment is cut off; lines are those of
    str.splitlines, read one at a time, and their numbers count from 1."""
    return _numbered(itertools.islice(_split_lines(text), after, None), after)


def _numbered(lines, after: int):
    """content_lines of the raw lines that follow line `after`."""
    for line_no, raw in enumerate(lines, start=after + 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def line_of(text: str, after: int, index: int) -> int | None:
    """The line number of the index-th content line (from 0) after line
    `after`, or None if fewer follow.  Rows are read without their line
    numbers; a refusal of a row by its index finds its line here."""
    # No text has more than sys.maxsize lines, the most islice counts.
    found = next(itertools.islice(content_lines(text, after), min(index, sys.maxsize), None),
                 None)
    return None if found is None else found[0]


def read_header(text: str, empty: str, width: int, bad_token: str, bad_width: str):
    """The line number and width integers, of any size, of the first content
    line of text, and the raw lines after it, not yet read, for read_rows;
    an empty text is ParseError(0, empty)."""
    lines = _split_lines(text)
    line_no, tokens = next(_numbered(lines, 0), (0, None))
    if tokens is None:
        raise ParseError(0, empty)
    return line_no, _row_values(line_no, tokens, int, width, bad_token, bad_width), lines


def _row_values(line_no: int, tokens, convert, width: int, bad_token: str, bad_width: str):
    """The tokens of one line through convert.  A token it refuses, then a
    count other than width, raise bad_token or bad_width at the line,
    formatted with the line as {row} and its token count as {count}."""
    row, count = " ".join(tokens), len(tokens)
    try:
        values = [convert(tok) for tok in tokens]
    except ValueError:
        raise ParseError(line_no, bad_token.format(row=row, count=count)) from None
    if count != width:
        raise ParseError(line_no, bad_width.format(row=row, count=count))
    return values


# Tokens per block of rows that the row reader converts at once.
_BLOCK_TOKENS = 1 << 14


def _int_block(lines, width: int) -> np.ndarray:
    """The rows of lines, raw lines, as int64 by numpy's C row reader (6-9x
    faster than int() per token on the Paley(1009) edge list and the J(16,4)
    relation matrix, numpy 2.4.6, 2 vCPU).  Raises ValueError or a Warning
    (numpy 1.24-1.26 reads "1.0" as 1 with a DeprecationWarning) on what it
    refuses, on an empty body and on a width other than width."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    if rows.shape[1] != width:
        raise ValueError(f"rows of {rows.shape[1]} integers")
    return rows


def _float_block(lines, width: int) -> np.ndarray:
    """The rows of lines, raw lines, as float64 with each distinct token
    converted once; ValueError for a token numpy refuses and for a width
    other than width.  The Grams this package reads repeat their entries
    (an s-distance Gram has s + 1 distinct ones): np.loadtxt parses the
    sphere Grams of perfbench 1.3-1.7x slower (numpy 2.4.6, 2 vCPU)."""
    token_rows = [tokens for raw in lines if (tokens := raw.split("#", 1)[0].split())]
    if any(len(tokens) != width for tokens in token_rows):
        raise ValueError(f"a row other than {width} tokens")
    flat = list(itertools.chain.from_iterable(token_rows))
    codes = {tok: i for i, tok in enumerate(dict.fromkeys(flat))}
    values = np.array(list(codes), dtype=float)
    picks = np.fromiter(map(codes.__getitem__, flat), np.intp, len(flat))
    return values[picks].reshape(len(token_rows), width)


def read_rows(text: str, after: int, lines, width: int, convert, bad_token: str,
              bad_width: str, max_rows: int = sys.maxsize) -> np.ndarray:
    """The content lines of lines, the raw lines of text after line `after`
    not yet read (read_header's), as one (count, width) array of the values
    convert (int or float) reads: int64 or float64.  Rows go through the
    kernel of their type (_int_block, _float_block) in blocks of about
    _BLOCK_TOKENS tokens, integers only once one call over all lines fails.
    A block the kernel refuses is read again token by token: its first bad
    line raises the ParseError of _row_values, or IntRangeError for an
    integer beyond 64 bits, and tokens only convert accepts ("1_0") keep
    their value.  No block is read once more than max_rows rows are in."""
    kernel, dtype = (_int_block, np.int64) if convert is int else (_float_block, float)
    if convert is int:
        try:
            return kernel(lines, width)
        except (ValueError, Warning):
            lines = itertools.islice(_split_lines(text), after, None)
    size = max(1, _BLOCK_TOKENS // max(width, 1))
    blocks, count, line_no = [], 0, after
    while count <= max_rows and (block := list(itertools.islice(lines, size))):
        try:
            rows = kernel(block, width)
        except (ValueError, Warning):
            rows = []
            for row_line, tokens in _numbered(block, line_no):
                row = _row_values(row_line, tokens, convert, width, bad_token, bad_width)
                if convert is int and (big := [v for v in row if not -2**63 <= v < 2**63]):
                    raise IntRangeError(row_line, row, big[0])
                rows.append(row)
            rows = np.array(rows, dtype=dtype)
        if len(rows):
            blocks.append(rows)
            count += len(rows)
        line_no += len(block)
    # No rows: the width is clamped to the widest numpy holds, and the caller refuses by count.
    return np.concatenate(blocks) if blocks else np.empty(
        (0, min(max(width, 0), sys.maxsize // 8)), dtype=dtype)
