import random

import pytest

from chainsteg.errors import InsufficientSample
from chainsteg.stats import (
    binomial_excess_p,
    chi_square_bytes_p,
    monobit_p,
    two_sample_bytes_p,
    two_sample_monobit_p,
)


def test_monobit_balanced_passes():
    rng = random.Random(1)
    assert monobit_p(rng.randbytes(4096)) > 0.01


def test_monobit_biased_fails():
    assert monobit_p(b"\x00" * 4096) < 1e-10
    assert monobit_p(b"\xff" * 4096) < 1e-10


def test_chi_square_uniform_passes():
    rng = random.Random(2)
    assert chi_square_bytes_p(rng.randbytes(65536)) > 0.01


def test_chi_square_constant_fails():
    assert chi_square_bytes_p(b"\x42" * 65536) < 1e-10


def test_chi_square_needs_sample():
    with pytest.raises(InsufficientSample):
        chi_square_bytes_p(b"abc")


def test_two_sample_same_distribution_passes():
    rng = random.Random(3)
    a, b = rng.randbytes(20000), rng.randbytes(20000)
    assert two_sample_bytes_p(a, b) > 0.01
    assert two_sample_monobit_p(a, b) > 0.01


def test_two_sample_different_distributions_fail():
    rng = random.Random(4)
    a = rng.randbytes(20000)
    b = bytes(x & 0x7F for x in rng.randbytes(20000))  # top bit cleared
    assert two_sample_bytes_p(a, b) < 1e-6
    assert two_sample_monobit_p(a, b) < 1e-6


def test_binomial_excess():
    assert binomial_excess_p(100, 100, 0.1) < 1e-50
    assert binomial_excess_p(10, 100, 0.1) > 0.3
    with pytest.raises(InsufficientSample):
        binomial_excess_p(0, 0, 0.1)
