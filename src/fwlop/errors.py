"""Exception hierarchy shared by all fwlop modules.

Every domain error derives from FwlopError so the CLI can map any of them
to exit code 1, while parse-level and usage errors derive from
DocumentError (exit code 3) and broken internal invariants raise
InvariantViolation (exit code 2).

The size caps at the end bound the enumerations a request can start; an
over-cap request raises RequestTooLarge (exit code 1) before it enumerates
anything.  `refuse_over` makes that refusal, and `multi_index_count` counts
a table's keys for it without listing them.  Each cap sits above every
input of the tests, the golden corpus, the verify defaults and the
benchmark.
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
    """Polynomial text violates the grammar.  `offset` is the character
    (str) index into the text."""

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
    """The two paths of `a_iso` disagree: a defect in fwlop, not in the
    input.  Raised explicitly, so it survives `python -O`."""


class RequestTooLarge(FwlopError):
    """Request over a size cap, refused before it enumerates anything."""


# Base dimension and fiber rank of a document's chart.
MAX_CHART_DIM = 64
# Keys C(n+m+q-1, q) of an order-q table that verify's oracles recover by
# evaluation.
MAX_TABLE_KEYS = 1000
# The same key count at the verify bounds n,m,q; lower, because the suites
# build tables up to order 2q-1.
MAX_VERIFY_TABLE_KEYS = 200
# Base dimension n of the metric Laplacian's chart (n,n); a Gamma with all
# n^3 entries nonzero takes under a second at the cap.
MAX_LAPLACIAN_DIM = 32
# Sub-multisets S <= J that one Leibniz pass enumerates for a term c d^J:
# per key part, their count times the part's length (the letters they
# hold), and the count of the base part times that of the fiber part (the
# pairs visited per term of the other operand).  2^20 admits a part of 16
# distinct letters, or of one letter 1000 times.  The live words of a walk
# of nested commutators with coordinates (coefficient recovery, a_iso's
# bundle-map path) are sub-multisets of the operand's keys, refused alike.
MAX_SUB_MULTISETS = 2**20
# Rows of a determinant in verify's oracles, expanded by cofactors over
# nonzero entries (up to 8! products when dense).
MAX_DET_SIZE = 8


def refuse_over(what: str, count: int, cap: int):
    if count > cap:
        raise RequestTooLarge(f"{what} exceeds the cap of {cap}")


def multi_index_count(alphabet_size: int, length: int, limit: int) -> int:
    """The number of multi-indices of the given length over 1..alphabet_size,
    C(alphabet_size+length-1, length), or limit + 1 when that is more than
    limit; 0 when the length is negative.

    With M = max(length, alphabet_size-1) the count is built as the running
    product C(M+i, i), i = 1..min(length, alphabet_size-1), which only
    grows; it stops once past the limit, so huge arguments cost a step or
    two.
    """
    if length < 0:
        return 0
    big = max(length, alphabet_size - 1)
    count = 1
    for i in range(1, min(length, alphabet_size - 1) + 1):
        count = count * (big + i) // i
        if count > limit:
            return limit + 1
    return count
