"""Blockchain steganography over a deterministic simulated ledger.

Two channels ride ordinary-looking transactions: a medium-capacity channel
that grinds derived addresses until chosen digest bits carry payload chunks
(optionally adding bits through the output permutation), and a
high-capacity channel that emits authenticated ciphertext verbatim as
160-bit hash fields of burned outputs. Detection is a sequential scan of
derived signal addresses shared through (k, y) / (k, g^y) key material.
"""

from .backend import available as available_backends, get as get_backend, set_backend
from .errors import (
    AuthError,
    ChainstegError,
    CorruptChain,
    DegenerateIndex,
    FramingError,
    GrindExhausted,
    InsufficientSample,
    NonceReuse,
    PermutationMismatch,
    RangeError,
    Rejected,
    TagCorruption,
    ValidationError,
)
from .hdw import Address, Channel, DerivationIndex, KeyMaterial
from .ledger import Block, Ledger, NoiseProfile, StegoTransaction, TxInput, TxOutput
from .medium import ChannelConfig, Chunk, GrindResult, Mode, grind
from .permcode import CanonicalSet, PermRank, perm_capacity_bits, rank, unrank
from .session import SessionState

__version__ = "0.1.0"

__all__ = [
    "Address",
    "AuthError",
    "Block",
    "CanonicalSet",
    "ChainstegError",
    "Channel",
    "ChannelConfig",
    "Chunk",
    "CorruptChain",
    "DegenerateIndex",
    "DerivationIndex",
    "FramingError",
    "GrindExhausted",
    "GrindResult",
    "InsufficientSample",
    "KeyMaterial",
    "Ledger",
    "Mode",
    "NoiseProfile",
    "NonceReuse",
    "PermRank",
    "PermutationMismatch",
    "RangeError",
    "Rejected",
    "SessionState",
    "StegoTransaction",
    "TagCorruption",
    "TxInput",
    "TxOutput",
    "ValidationError",
    "available_backends",
    "get_backend",
    "grind",
    "perm_capacity_bits",
    "rank",
    "set_backend",
    "unrank",
    "__version__",
]
