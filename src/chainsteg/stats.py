"""A/B indistinguishability statistics for stego against decoy traffic.

Two-sample tests compare a stego blob with a decoy blob: chi-square
homogeneity of their byte frequencies, and a two-proportion z-test on
their ones rates. A one-sample chi-square scores values against the
uniform law. Standard library only.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import InsufficientSample


def _chi2_sf(stat: float, dof: int) -> float:
    """P[X >= stat] for X ~ chi-square(dof), i.e. the regularized upper
    gamma function Q(dof / 2, stat / 2), from its closed forms: a Poisson
    sum for even dof, erfc plus half-integer terms for odd dof. dof 0 comes
    with stat 0 (one byte value in both arms) and gives 1.0."""
    x = stat / 2
    if dof % 2 == 0:
        term = total = math.exp(-x)  # e^-x x^k / k!
        for k in range(1, dof // 2):
            term *= x / k
            total += term
        return total
    total = math.erfc(math.sqrt(x))
    term = 2 * math.exp(-x) * math.sqrt(x / math.pi)  # e^-x x^(j+1/2) / Γ(j+3/2)
    for j in range(dof // 2):
        total += term
        term *= x / (j + 1.5)
    return total


def two_sample_bytes_p(a: bytes, b: bytes) -> float:
    """Chi-square homogeneity of two byte-frequency tables, over the byte
    values that occur in either arm (at most 255 dof)."""
    if len(a) < 1024 or len(b) < 1024:
        raise InsufficientSample("need at least 1 KiB per arm")
    ca, cb = Counter(a), Counter(b)
    na, nb = len(a), len(b)
    terms = []
    for value in ca.keys() | cb.keys():
        pooled = (ca[value] + cb[value]) / (na + nb)
        ea, eb = pooled * na, pooled * nb
        terms += ((ca[value] - ea) ** 2 / ea, (cb[value] - eb) ** 2 / eb)
    return _chi2_sf(math.fsum(terms), len(terms) // 2 - 1)


def two_sample_monobit_p(a: bytes, b: bytes) -> float:
    """Two-proportion z-test on the ones rate of both bit streams."""
    na, nb = 8 * len(a), 8 * len(b)
    if na == 0 or nb == 0:
        raise InsufficientSample("empty sample")
    ones_a = int.from_bytes(a, "big").bit_count()
    ones_b = int.from_bytes(b, "big").bit_count()
    pool = (ones_a + ones_b) / (na + nb)
    denom = math.sqrt(pool * (1 - pool) * (1 / na + 1 / nb))
    if denom == 0:
        return 0.0
    z = abs(ones_a / na - ones_b / nb) / denom
    return math.erfc(z / math.sqrt(2))


def uniform_chi_p(values: list[int], bins: int) -> float:
    """Chi-square goodness of fit of values in [0, bins) to the uniform law,
    bins - 1 dof; small means 'not uniform'."""
    if not values or bins < 2:
        raise InsufficientSample("need values over at least two bins")
    counts = Counter(values)
    expected = len(values) / bins
    stat = math.fsum((counts[v] - expected) ** 2 for v in range(bins)) / expected
    return _chi2_sf(stat, bins - 1)
