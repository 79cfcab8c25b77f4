"""Exception hierarchy shared by all ppkit modules."""


class PPKitError(Exception):
    """Base class for all ppkit errors."""


class NotPrime(PPKitError):
    """Characteristic argument is not a prime number."""


class DegreeTooLarge(PPKitError):
    """Requested field exceeds the configured size bound."""


class NoIrreducibleFound(PPKitError):
    """Internal modulus search failed; indicates a bug, not bad input."""


class DivisionByZero(PPKitError):
    """Inverse or division requested for the zero element."""


class MixedContexts(PPKitError):
    """Operands belong to different field contexts."""


class InvalidSubfield(PPKitError, ValueError):
    """Subfield order is not p^j with j dividing the extension degree."""


class WrongCharacteristic(PPKitError):
    """Operation requires the other parity of characteristic."""


class DependentBasis(PPKitError):
    """Supplied basis vectors are linearly dependent."""


class ImageOutOfDomain(PPKitError):
    """An evaluator produced an encoding outside the codomain."""


class DomainTooLarge(PPKitError):
    """Domain exceeds the oracle's enumeration bound."""


class ExponentOutOfRange(PPKitError):
    """Instantiated exponent falls outside (0, q^2 - 1)."""


class KindContextMismatch(PPKitError):
    """Family kind does not match the supplied field context."""


class UnknownTheorem(PPKitError):
    """No theorem with the given identifier."""


class InvalidParam(PPKitError, ValueError):
    """A parameter lies outside its domain, e.g. an encoding outside the field."""


class MissingParam(PPKitError):
    """A theorem-specific parameter (i, d, ...) was not supplied."""


class GammaNotInSubfield(PPKitError):
    """Operation requires gamma to lie in the base field."""


class SingularMatrix(PPKitError):
    """Decomposition twist matrix is not invertible."""


class InvalidConfig(PPKitError):
    """The PPKIT_MAX_Q environment variable is malformed."""


class LeftBaseField(PPKitError):
    """A tower trace or norm left the base field; indicates a bug, not bad input."""
