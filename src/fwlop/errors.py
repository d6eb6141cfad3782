"""Exception hierarchy shared by all fwlop modules.

Every domain error derives from FwlopError so the CLI can map any of them
to exit code 1, while parse-level errors derive from DocumentError (exit
code 3) and broken internal invariants raise InvariantViolation (exit
code 2).
"""


class FwlopError(Exception):
    """Base class for all domain errors."""


class ChartMismatch(FwlopError):
    """Operands live on charts with different dimensions."""


class SpaceMismatch(FwlopError):
    """Operands live on different spaces, or a variable is illegal there."""


class DocumentError(FwlopError):
    """Malformed input document (bad JSON schema, unknown keys, ...)."""


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
    """Operator order is larger than the requested linearization order."""


class RankMismatch(FwlopError):
    """Bundle rank incompatible with the chart (e.g. metric needs m = n)."""


class AsymmetricGamma(FwlopError):
    """Connection coefficient table is not symmetric in its lower indices."""


class NonConstantDeterminant(FwlopError):
    """Metric determinant is not a nonzero constant (defensive check)."""


class UnknownSuite(FwlopError):
    """Verification suite name not in the registry."""


class InvariantViolation(FwlopError):
    """An internal consistency check failed: a defect in fwlop, not in the
    input.  Raised explicitly, so it survives `python -O`."""
