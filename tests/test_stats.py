import math
import os
import random
import subprocess
import sys

import pytest

import chainsteg
from chainsteg.errors import InsufficientSample
from chainsteg.stats import (
    _chi2_sf,
    binomial_excess_p,
    two_sample_bytes_p,
    two_sample_monobit_p,
)

# a seeded uniform reference arm for the one-sided questions below
REFERENCE = random.Random(0).randbytes(65536)


def test_monobit_balanced_passes():
    rng = random.Random(1)
    assert two_sample_monobit_p(rng.randbytes(4096), REFERENCE[:4096]) > 0.01


def test_monobit_biased_fails():
    assert two_sample_monobit_p(b"\x00" * 4096, REFERENCE[:4096]) < 1e-10
    assert two_sample_monobit_p(b"\xff" * 4096, REFERENCE[:4096]) < 1e-10


def test_chi_square_uniform_passes():
    rng = random.Random(2)
    assert two_sample_bytes_p(rng.randbytes(65536), REFERENCE) > 0.01


def test_chi_square_constant_fails():
    assert two_sample_bytes_p(b"\x42" * 65536, REFERENCE) < 1e-10


def test_chi_square_needs_sample():
    with pytest.raises(InsufficientSample):
        two_sample_bytes_p(b"abc", REFERENCE)
    with pytest.raises(InsufficientSample):
        two_sample_bytes_p(REFERENCE, bytes(1023))
    with pytest.raises(InsufficientSample):
        two_sample_monobit_p(b"", REFERENCE)


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


@pytest.mark.filterwarnings("error")
def test_byte_values_absent_from_both_arms():
    # only the 100 values that occur count: 99 dof, and no division by an
    # expected count of zero
    rng = random.Random(5)
    a = bytes(rng.randrange(100) for _ in range(5000))
    b = bytes(rng.randrange(100) for _ in range(7000))
    ca, cb = [a.count(v) for v in range(100)], [b.count(v) for v in range(100)]
    stat = 0.0
    for x, y in zip(ca, cb):
        pooled = (x + y) / (len(a) + len(b))
        stat += (x - pooled * len(a)) ** 2 / (pooled * len(a))
        stat += (y - pooled * len(b)) ** 2 / (pooled * len(b))
    assert two_sample_bytes_p(a, b) == pytest.approx(_chi2_sf(stat, 99), abs=1e-12)
    assert two_sample_bytes_p(a, b) > 0.01
    # one value in both arms: 0 dof, and equal proportions are no evidence
    assert two_sample_bytes_p(bytes(2048), bytes(1024)) == 1.0


def test_chi2_sf_matches_scipy():
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    for dof in [*range(1, 40), 100, 127, 200, 254, 255]:
        for stat in [0.0, 1e-9, 0.37, 2.5, *range(1, 3001, 7)]:
            assert _chi2_sf(stat, dof) == pytest.approx(
                gammaincc(dof / 2, stat / 2), abs=1e-12, rel=0
            )


def test_binomial_excess_matches_scipy():
    binom = pytest.importorskip("scipy.stats").binom
    for trials in (1, 2, 5, 10, 50, 100, 500, 2000):
        for p0 in (1e-6, 0.001, 1 / 6, 0.25, 0.5, 0.9, 0.999999, 1.0):
            for hits in {-1, 0, 1, 2, trials // 3, trials // 2, trials - 1, trials,
                         trials + 1, int(trials * p0)}:
                assert binomial_excess_p(hits, trials, p0) == pytest.approx(
                    binom.sf(hits - 1, trials, p0), abs=1e-12, rel=0
                )


def test_two_sample_functions_match_numpy_formulas():
    np = pytest.importorskip("numpy")
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    rng = random.Random(6)
    for _ in range(20):
        alphabet = rng.sample(range(256), rng.choice([256, 200, 17]))
        a = bytes(rng.choice(alphabet) for _ in range(rng.randint(1024, 8000)))
        b = bytes(rng.choice(alphabet) for _ in range(rng.randint(1024, 8000)))
        ca = np.bincount(np.frombuffer(a, dtype=np.uint8), minlength=256).astype(float)
        cb = np.bincount(np.frombuffer(b, dtype=np.uint8), minlength=256).astype(float)
        mask = (ca + cb) > 0
        ca, cb = ca[mask], cb[mask]
        pooled = (ca + cb) / (len(a) + len(b))
        ea, eb = pooled * len(a), pooled * len(b)
        stat = float(((ca - ea) ** 2 / ea + (cb - eb) ** 2 / eb).sum())
        expected = float(gammaincc((mask.sum() - 1) / 2, stat / 2))
        assert two_sample_bytes_p(a, b) == pytest.approx(expected, abs=1e-12, rel=0)

        bits_a = np.unpackbits(np.frombuffer(a, dtype=np.uint8))
        bits_b = np.unpackbits(np.frombuffer(b, dtype=np.uint8))
        pool = (bits_a.sum() + bits_b.sum()) / (bits_a.size + bits_b.size)
        z = abs(bits_a.mean() - bits_b.mean()) / math.sqrt(
            pool * (1 - pool) * (1 / bits_a.size + 1 / bits_b.size))
        assert two_sample_monobit_p(a, b) == pytest.approx(
            math.erfc(z / math.sqrt(2)), abs=1e-12, rel=0
        )


def test_cli_imports_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(chainsteg.__file__))
    code = ("import chainsteg.cli, sys; "
            "print(sorted({'numpy', 'scipy'} & {m.split('.')[0] for m in sys.modules}))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
