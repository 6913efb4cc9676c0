"""Exception types shared across the package, and the line and row
readers of the text formats, whose ParseErrors carry line numbers."""

import itertools
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


def read_header(lines, empty: str, width: int, bad_token: str, bad_width: str):
    """The line number and width integers, of any size, of the first of
    lines, an iterator of content_lines; an empty file is ParseError(0, empty)."""
    line_no, tokens = next(lines, (0, None))
    if tokens is None:
        raise ParseError(0, empty)
    return line_no, _row_values(line_no, tokens, int, width, bad_token, bad_width)


def read_int_header(text: str, empty: str, width: int, bad_token: str, bad_width: str):
    """read_header of the content lines of text, and the raw lines after
    the header line, not yet read, for read_int_rows."""
    lines = _split_lines(text)
    return (*read_header(_numbered(lines, 0), empty, width, bad_token, bad_width), lines)


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


# Tokens per numpy array that the line-by-line readers convert at once.
_BLOCK_TOKENS = 1 << 14


def read_int_rows(text: str, after: int, width: int, bad_token: str, bad_width: str, lines):
    """The content lines of text after line `after` as one (count, width)
    int64 array, each token the value int() reads.  numpy's C row reader
    parses lines, the raw lines of _split_lines after line `after` not yet
    read (read_int_header's), so the line breaks are those of content_lines.
    Whatever it refuses or warns of (numpy 1.24-1.26 reads "1.0" as 1 with
    only a DeprecationWarning), an empty body and a width other than width
    are read again line by line from text: the first bad line raises
    the ParseError of _row_values, or IntRangeError if it holds an integer
    beyond 64 bits, and tokens that only int() accepts ("1_0") keep their value."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
        if rows.shape[1] == width:
            return rows
    except Exception:
        pass  # The re-read below accepts or refuses every text numpy does not.
    lines = content_lines(text, after)
    blocks = [np.empty((0, max(width, 0)), np.int64)]
    while block := list(itertools.islice(lines, max(1, _BLOCK_TOKENS // max(width, 1)))):
        rows = []
        for line_no, tokens in block:
            row = _row_values(line_no, tokens, int, width, bad_token, bad_width)
            if big := [v for v in row if not -2**63 <= v < 2**63]:
                raise IntRangeError(line_no, row, big[0])
            rows.append(row)
        blocks.append(np.array(rows, dtype=np.int64))
    return np.concatenate(blocks)


# A block whose first _SAMPLE tokens hold at most one distinct token in
# _REPEATS converts each distinct token once.  Measured on 16k-token blocks
# (numpy 2.4, 2 vCPU) against the direct call: a few-distance Gram block (3
# distinct 17-digit floats) converts 3.2-3.8x faster, and a block of
# all-distinct floats would take 1.6-1.8x as long.  A computed Gram's first
# 256 tokens hold about 180 distinct entries, so it keeps the direct call.
_SAMPLE, _REPEATS = 256, 8


def _convert_distinct(tokens: list) -> np.ndarray:
    """np.array(tokens, float), with each distinct token converted once."""
    codes = {tok: i for i, tok in enumerate(dict.fromkeys(tokens))}
    values = np.array(list(codes), dtype=float)
    return values[np.fromiter(map(codes.__getitem__, tokens), np.intp, len(tokens))]


def read_rows(lines, width: int, bad_token: str, bad_width: str):
    """The lines left in lines, an iterator of content_lines, as one
    (count, width) float array and the list of their line numbers.  Tokens
    convert as float() reads them, in numpy calls over blocks of about
    _BLOCK_TOKENS; a block whose tokens repeat (see _SAMPLE) converts each
    distinct token once.  A block that fails is read again line by line:
    its first bad line raises the ParseError of _row_values."""
    blocks, numbers = [], []
    while block := list(itertools.islice(lines, max(1, _BLOCK_TOKENS // max(width, 1)))):
        block_numbers, token_rows = zip(*block)
        numbers += block_numbers
        try:
            if set(map(len, token_rows)) == {width}:
                flat = list(itertools.chain.from_iterable(token_rows))
                sample = flat[:_SAMPLE]
                if len(set(sample)) * _REPEATS <= len(sample):
                    values = _convert_distinct(flat)
                else:
                    values = np.array(flat, dtype=float)
                blocks.append(values.reshape(-1, width))
                continue
        except ValueError:
            pass
        for line_no, tokens in block:
            _row_values(line_no, tokens, float, width, bad_token, bad_width)
    return np.concatenate(blocks) if blocks else np.empty((0, max(width, 0))), numbers
