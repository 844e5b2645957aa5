"""Exception hierarchy shared by all repcount modules.

Each class's ``exit_code`` is what the CLI returns for it: 2 for a spec the
caller got wrong, 3 for a cap or bound reached, 4 for an internal fault.
"""

EXIT_LIMIT = 3  # the CLI's code for a MemoryError and unwritable output too


class RepcountError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 4


class NotAUnit(RepcountError):
    """Inversion was requested for a residue divisible by p."""


class NotARoot(RepcountError):
    """Polynomial value is nonzero at the requested base congruence level."""


class NotASimpleRoot(RepcountError):
    """Polynomial derivative vanishes mod p, so Newton lifting cannot start."""


class DivisibleByP(RepcountError):
    """Teichmüller lift requested for an integer divisible by p."""


class OrderUnavailable(RepcountError):
    """No root of unity of the requested order exists mod p^M."""


class DimensionMismatch(RepcountError):
    """Matrix operands have different dimensions."""


class PrecisionTooLow(RepcountError):
    """The working precision M is insufficient for the requested operation."""
    exit_code = EXIT_LIMIT


class CapExceeded(RepcountError):
    """A group closure or a search exceeded its configured cap."""
    exit_code = EXIT_LIMIT


class SpecInvalid(RepcountError):
    """A group specification or other input violates its admissibility constraints."""
    exit_code = 2


class InvariantViolation(RepcountError):
    """A structural invariant of a group, class table or count failed (internal error)."""


class SpaceTooLarge(RepcountError):
    """An enumeration would exceed its cap, or a count on (Z/p^k)^l its size bound."""
    exit_code = EXIT_LIMIT
