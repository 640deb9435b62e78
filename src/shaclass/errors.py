"""Exception types shared across the package."""


class ShaclassError(Exception):
    """Base class for all errors raised by this package."""


class SingularModel(ShaclassError):
    """Weierstrass model has discriminant zero."""


class BadReductionAtP(ShaclassError):
    """Operation requires good reduction at p."""


class FactorizationTooHard(ShaclassError):
    """Remaining cofactor after trial division exceeds the rho cutoff."""


class GroupTooLarge(ShaclassError):
    """Matrix group closure exceeded the configured cap."""


class NotFound(ShaclassError):
    """No record for the requested curve label."""


class FixtureMissing(NotFound):
    """No local record for the label, in a lookup that may not use the network."""


class NetworkError(ShaclassError):
    """Remote database could not be reached."""


class SchemaDrift(ShaclassError):
    """Remote or fixture record is missing expected fields."""


class InsufficientData(ShaclassError):
    """Not enough arithmetic data to build Selmer scenarios."""


class InvalidInput(ShaclassError):
    """Malformed user input (labels, coefficient lists, flags)."""
