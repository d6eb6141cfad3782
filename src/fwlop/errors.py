"""Exception hierarchy shared by all fwlop modules.

Every domain error derives from FwlopError so the CLI can map any of them
to exit code 1, while parse-level and usage errors derive from
DocumentError (exit code 3) and broken internal invariants raise
InvariantViolation (exit code 2).

The size caps at the end bound the enumerations a request can start; an
over-cap request raises RequestTooLarge (exit code 1) before it enumerates
anything.  Each cap sits at least 10x above every input of the tests, the
golden corpus, the verify defaults and the benchmark.
"""


class FwlopError(Exception):
    """Base class for all domain errors."""


class ChartMismatch(FwlopError):
    """Operands live on charts with different dimensions."""


class SpaceMismatch(FwlopError):
    """Operands live on different spaces, or a variable is illegal there."""


class DocumentError(FwlopError):
    """Malformed input document (bad JSON schema, unknown keys, ...)."""


class UsageError(DocumentError):
    """Command line the argument parser rejects (unknown subcommand or flag,
    missing or ill-typed argument)."""


class PolySyntaxError(DocumentError):
    """Polynomial text violates the grammar.  `offset` is the byte position."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(DocumentError):
    """Variable letter not admitted by the target space."""


class IndexOutOfRange(DocumentError):
    """Variable index exceeds the chart dimensions."""


class ZeroOperator(FwlopError):
    """Operation needs a nonzero operator (the zero operator has no order)."""


class ArityMismatch(FwlopError):
    """Wrong number of arguments for a multivector evaluation."""


class NotFWL(FwlopError):
    """Operand fails the fiber-wise linearity test."""


class NotCore(FwlopError):
    """Operand fails the core (lowest-weight) test."""


class NotHomogeneous(FwlopError):
    """Operand is not homogeneous of the required degree."""


class IncompatiblePair(FwlopError):
    """Multivector/bundle-map pair violates the symbol compatibility l∘Φ = l_P."""


class NotLinearizable(FwlopError):
    """Object does not satisfy the linearizability criterion at this order."""


class OrderExceeded(FwlopError):
    """Operator order is larger than the construction accepts: the requested
    linearization order, or 1 for a line-bundle derivation."""


class RankMismatch(FwlopError):
    """Bundle rank incompatible with the chart (e.g. metric needs m = n)."""


class AsymmetricGamma(FwlopError):
    """Connection coefficient table is not symmetric in its lower indices."""


class UnknownSuite(FwlopError):
    """Verification suite name not in the registry."""


class InvariantViolation(FwlopError):
    """An internal consistency check failed: a defect in fwlop, not in the
    input.  Raised explicitly, so it survives `python -O`."""


class RequestTooLarge(FwlopError):
    """Request over a size cap, refused before it enumerates anything."""


# Base dimension and fiber rank of a document's chart.
MAX_CHART_DIM = 64
# Basis multi-indices C(m+q-2, q-1) that a_iso, a_inverse and linearize_do
# walk at order q on fiber rank m.
MAX_BASIS_INDICES = 100
# Keys C(n+m+q-1, q) of an order-q table recovered by evaluation.
MAX_TABLE_KEYS = 1000
# The same key count at the verify bounds n,m,q; lower, because the suites
# build tables up to order 2q-1.
MAX_VERIFY_TABLE_KEYS = 200
# Rows of a determinant, expanded by cofactors over nonzero entries (up to
# 8! products when dense); the metric Laplacian on chart (n,n) needs 2n.
MAX_DET_SIZE = 8


def refuse_over(what: str, count: int, cap: int):
    if count > cap:
        raise RequestTooLarge(f"{what} exceeds the cap of {cap}")
