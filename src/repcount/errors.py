"""Exception hierarchy shared by all repcount modules."""


class RepcountError(Exception):
    """Base class for all errors raised by this package."""


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


class CapExceeded(RepcountError):
    """A group closure or a search exceeded its configured cap."""


class NonIntegralRank(RepcountError):
    """Trace averaging did not produce an integral fixed-space rank."""


class SpecInvalid(RepcountError):
    """A group specification violates its admissibility constraints."""


class NonIntegralCount(RepcountError):
    """An orbit-count division left a remainder (internal invariant broken)."""


class NonIntegralResult(RepcountError):
    """A closed-form evaluation did not come out integral."""


class InvariantViolation(RepcountError):
    """A structural invariant of a group, class table or count failed (internal error)."""


class SpaceTooLarge(RepcountError):
    """An enumeration would exceed its cap, or a count on (Z/p^k)^l its size bound."""
