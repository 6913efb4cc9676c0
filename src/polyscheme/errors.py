"""Exception types shared across the package, and the line reader of the
text formats, whose ParseErrors carry line numbers."""


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


def content_lines(text: str):
    """Yield (line_no, tokens) for each line that keeps a token once its
    "#" comment is cut off; lines are those of str.splitlines, read one at
    a time, and their numbers count from 1."""
    for line_no, raw in enumerate(_split_lines(text), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens
