"""Randomness and A/B indistinguishability statistics.

Monobit and byte-frequency chi-square for single samples; two-sample
homogeneity chi-square and a two-proportion z-test for stego/decoy
comparisons; a tag-pattern detector with binomial tail for the unmasked
slot-tag debug mode.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc
from scipy.stats import binom

from .errors import InsufficientSample


def monobit_p(data: bytes) -> float:
    """NIST-style frequency test: p-value that the bit balance is uniform."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    n = bits.size
    if n == 0:
        raise InsufficientSample("empty sample")
    s = abs(2 * int(bits.sum()) - n) / math.sqrt(n)
    return math.erfc(s / math.sqrt(2))


def chi_square_bytes_p(data: bytes) -> float:
    """Chi-square goodness of fit of byte frequencies against uniform."""
    if len(data) < 1024:
        raise InsufficientSample("need at least 1 KiB for byte frequencies")
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    expected = len(data) / 256
    stat = float(((counts - expected) ** 2 / expected).sum())
    return float(gammaincc(255 / 2, stat / 2))


def two_sample_bytes_p(a: bytes, b: bytes) -> float:
    """Chi-square homogeneity of two byte-frequency tables (255 dof)."""
    if len(a) < 1024 or len(b) < 1024:
        raise InsufficientSample("need at least 1 KiB per arm")
    ca = np.bincount(np.frombuffer(a, dtype=np.uint8), minlength=256).astype(float)
    cb = np.bincount(np.frombuffer(b, dtype=np.uint8), minlength=256).astype(float)
    na, nb = ca.sum(), cb.sum()
    pooled = (ca + cb) / (na + nb)
    ea, eb = pooled * na, pooled * nb
    mask = pooled > 0
    stat = float((((ca - ea) ** 2 / ea)[mask] + ((cb - eb) ** 2 / eb)[mask]).sum())
    return float(gammaincc((mask.sum() - 1) / 2, stat / 2))


def two_sample_monobit_p(a: bytes, b: bytes) -> float:
    """Two-proportion z-test on the ones rate of both bit streams."""
    bits_a = np.unpackbits(np.frombuffer(a, dtype=np.uint8))
    bits_b = np.unpackbits(np.frombuffer(b, dtype=np.uint8))
    na, nb = bits_a.size, bits_b.size
    if na == 0 or nb == 0:
        raise InsufficientSample("empty sample")
    pa, pb = bits_a.mean(), bits_b.mean()
    pool = (bits_a.sum() + bits_b.sum()) / (na + nb)
    denom = math.sqrt(pool * (1 - pool) * (1 / na + 1 / nb))
    if denom == 0:
        return 0.0
    z = abs(pa - pb) / denom
    return math.erfc(z / math.sqrt(2))


def binomial_excess_p(hits: int, trials: int, p0: float) -> float:
    """P[X >= hits] for X ~ Binomial(trials, p0); small means 'too many'."""
    if trials == 0:
        raise InsufficientSample("no trials")
    return float(binom.sf(hits - 1, trials, p0))
