"""Exception hierarchy shared by all cayleycert modules."""


class CayleyCertError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(CayleyCertError):
    """Mismatched shapes: arities, variable sets, discriminants, labels."""


class FieldMismatchError(StructureError):
    """Arithmetic between scalars of different quadratic extensions."""


class DegenerateError(CayleyCertError):
    """A denominator vanished, a matrix was singular, or a point hit the
    exceptional locus of a map."""


class PreconditionError(CayleyCertError):
    """An input violated a documented precondition (e.g. a matrix that is
    not a group point was fed to a transform)."""


class TermBudgetError(CayleyCertError):
    """A polynomial operation would exceed the configured term budget."""


class ExponentOverflowError(TermBudgetError):
    """A monomial's total degree does not fit the exponent field of a
    packed key (2^16 or more); there is no wider representation."""


class SamplingError(CayleyCertError):
    """The bounded retry budget for random point sampling was exhausted,
    which usually means the map's exceptional locus was hit repeatedly."""
