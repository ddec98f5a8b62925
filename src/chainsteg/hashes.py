"""Digest primitives: sha256, sha256d, ripemd160, hash160.

OpenSSL builds without the legacy provider drop ripemd160 from hashlib, so a
pure-Python block implementation is kept here and used when hashlib refuses.
"""

from __future__ import annotations

import hashlib
import struct


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


# ---------------------------------------------------------------------------
# RIPEMD-160

_RL = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8,
    3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12,
    1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2,
    4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13,
]
_RR = [
    5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12,
    6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2,
    15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13,
    8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14,
    12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11,
]
_SL = [
    11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
    7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
    11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
    11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
    9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6,
]
_SR = [
    8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
    9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
    9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
    15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
    8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11,
]
_KL = [0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E]
_KR = [0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0x00000000]

_MASK = 0xFFFFFFFF


def _rol(x: int, s: int) -> int:
    return ((x << s) | (x >> (32 - s))) & _MASK


def _rmd_f(j: int, x: int, y: int, z: int) -> int:
    if j < 16:
        return x ^ y ^ z
    if j < 32:
        return (x & y) | (~x & z)
    if j < 48:
        return (x | ~y) ^ z
    if j < 64:
        return (x & z) | (y & ~z)
    return x ^ (y | ~z)


def _rmd_compress(state: list[int], block: bytes) -> None:
    x = struct.unpack("<16I", block)
    al, bl, cl, dl, el = state
    ar, br, cr, dr, er = state
    for j in range(80):
        t = (al + _rmd_f(j, bl, cl, dl) + x[_RL[j]] + _KL[j // 16]) & _MASK
        t = (_rol(t, _SL[j]) + el) & _MASK
        al, el, dl, cl, bl = el, dl, _rol(cl, 10), bl, t
        t = (ar + _rmd_f(79 - j, br, cr, dr) + x[_RR[j]] + _KR[j // 16]) & _MASK
        t = (_rol(t, _SR[j]) + er) & _MASK
        ar, er, dr, cr, br = er, dr, _rol(cr, 10), br, t
    t = (state[1] + cl + dr) & _MASK
    state[1] = (state[2] + dl + er) & _MASK
    state[2] = (state[3] + el + ar) & _MASK
    state[3] = (state[4] + al + br) & _MASK
    state[4] = (state[0] + bl + cr) & _MASK
    state[0] = t


def _ripemd160_pure(data: bytes) -> bytes:
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    padded = data + b"\x80" + b"\x00" * ((55 - len(data)) % 64)
    padded += struct.pack("<Q", 8 * len(data))
    for i in range(0, len(padded), 64):
        _rmd_compress(state, padded[i : i + 64])
    return struct.pack("<5I", *state)


def _hashlib_ripemd160_ok() -> bool:
    try:
        return hashlib.new("ripemd160", b"abc").hexdigest() == (
            "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"
        )
    except (ValueError, TypeError):
        return False


if _hashlib_ripemd160_ok():
    def ripemd160(data: bytes) -> bytes:
        return hashlib.new("ripemd160", data).digest()
else:
    ripemd160 = _ripemd160_pure


def hash160(data: bytes) -> bytes:
    """RIPEMD-160 of SHA-256; the 20-byte core of classic addresses."""
    return ripemd160(sha256(data))

