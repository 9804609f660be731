"""Exception types shared across the library."""


class QelabError(Exception):
    """Base class for all library errors."""


class MalformedKeyError(QelabError, ValueError):
    """A pad/key bitstring has the wrong length or alphabet."""


class LayoutError(QelabError, ValueError):
    """A register layout is inconsistent or names an unknown subsystem."""


class ParameterError(QelabError, ValueError):
    """A run parameter (trial count, seed, size) is outside its range."""


class DimensionMismatchError(QelabError, ValueError):
    """Two operands have incompatible dimensions."""


class MeasurementError(QelabError, RuntimeError):
    """Renormalizing a measurement branch of probability zero."""


class ExactModeError(QelabError, RuntimeError):
    """An operation is not available in exact-enumeration mode."""


class EnumerationCapError(QelabError, RuntimeError):
    """Exact enumeration would exceed the configured branch cap."""


class OraclePolicyError(QelabError, RuntimeError):
    """A role called an oracle it was not granted, or exceeded its budget."""


class InvalidCiphertextError(QelabError, ValueError):
    """A ciphertext tag does not decode into the expected domain."""


class RoleError(QelabError, ValueError):
    """A role is incompatible with the game it was wired into."""
