"""Exception types shared across the package."""


class ChainstegError(Exception):
    """Base class for all package errors."""


class ValidationError(ChainstegError):
    """Bad configuration, malformed input, or violated precondition."""


class DegenerateIndex(ChainstegError):
    """Derivation index produced a zero key or the point at infinity.

    Probability ~2**-256 per index; callers skip to the next counter.
    """


class PermutationMismatch(ChainstegError):
    """Observed addresses are not a permutation of the canonical set."""


class RangeError(ChainstegError):
    """Permutation rank outside [0, n!-1]."""


class GrindExhausted(ChainstegError):
    """Attempt budget exceeded before the target bits were found."""

    def __init__(self, message, next_counter=None):
        super().__init__(message)
        self.next_counter = next_counter


class TagCorruption(ChainstegError):
    """Slot tags did not unmask to a permutation; wrong key or foreign tx."""


class FramingError(ChainstegError):
    """Message too long or frame fields out of range."""


class AuthError(ChainstegError):
    """Authenticated decryption failed; wrong key or corrupted field."""


class NonceReuse(ChainstegError):
    """A signal counter was about to key a second encryption."""


class InsufficientSample(ChainstegError):
    """Too little data for a meaningful statistical test."""


class Rejected(ChainstegError):
    """Ledger refused the transaction (double spend, dust, bad amounts)."""


class CorruptChain(ChainstegError):
    """Chain file failed hash re-verification or framing checks."""
