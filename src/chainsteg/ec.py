"""Pure-Python secp256k1: point arithmetic, fixed-base multiplication and
point serialization.

This is the fallback path; the compiled kernel mirrors the same math. Fixed
multiples of the generator go through a lazily built 8-bit window table so
scanning loops stay tolerable without the extension.
"""

from __future__ import annotations

P = 2**256 - 2**32 - 977
Q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# Affine points are (x, y) tuples; None is the point at infinity.
Point = tuple[int, int] | None
G: Point = (GX, GY)

_WINDOW = 8
_N_WINDOWS = 256 // _WINDOW


def is_on_curve(pt: Point) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - 7) % P == 0


def point_add(p1: Point, p2: Point) -> Point:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        m = (3 * x1 * x1) * pow(2 * y1, -1, P) % P
    else:
        m = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (m * m - x1 - x2) % P
    y3 = (m * (x1 - x3) - y1) % P
    return (x3, y3)


# ---------------------------------------------------------------------------
# Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3; Z=0 is infinity.

JPoint = tuple[int, int, int]
_JINF: JPoint = (1, 1, 0)


def _jac_double(pt: JPoint) -> JPoint:
    x, y, z = pt
    if z == 0 or y == 0:
        return _JINF
    a = x * x % P
    b = y * y % P
    c = b * b % P
    d = 2 * ((x + b) * (x + b) - a - c) % P
    e = 3 * a % P
    f = e * e % P
    x3 = (f - 2 * d) % P
    y3 = (e * (d - x3) - 8 * c) % P
    z3 = 2 * y * z % P
    return (x3, y3, z3)


def _jac_add_affine(pt: JPoint, q: Point) -> JPoint:
    """Mixed addition of a Jacobian point and an affine point."""
    if q is None:
        return pt
    x1, y1, z1 = pt
    if z1 == 0:
        return (q[0], q[1], 1)
    x2, y2 = q
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 % P * z1z1 % P
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    if h == 0:
        if r == 0:
            return _jac_double(pt)
        return _JINF
    h2 = h * h % P
    h3 = h * h2 % P
    x1h2 = x1 * h2 % P
    x3 = (r * r - h3 - 2 * x1h2) % P
    y3 = (r * (x1h2 - x3) - y1 * h3) % P
    z3 = z1 * h % P
    return (x3, y3, z3)


def _jac_to_affine(pt: JPoint) -> Point:
    x, y, z = pt
    if z == 0:
        return None
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 % P * zi % P)


def jac_batch_to_affine(points: list[JPoint]) -> list[Point]:
    """Normalize many Jacobian points with a single field inversion."""
    zs = [pt[2] for pt in points]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % P if z else prefix[i]
    inv_all = pow(prefix[-1], -1, P)
    out: list[Point] = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        if z == 0:
            continue
        zi = inv_all * prefix[i] % P
        inv_all = inv_all * z % P
        zi2 = zi * zi % P
        out[i] = (x * zi2 % P, y * zi2 % P * zi % P)
    return out


# ---------------------------------------------------------------------------
# Fixed-base multiplication

_g_table: list[list[Point]] | None = None


def _build_g_table() -> list[list[Point]]:
    """table[w][j-1] = (j << (8*w)) * G for j in 1..255."""
    table = []
    base = G
    for _ in range(_N_WINDOWS):
        row = [base]
        acc: JPoint = (base[0], base[1], 1)
        for _ in range(254):
            acc = _jac_add_affine(acc, base)
            row.append(acc)
        row = [row[0]] + jac_batch_to_affine(row[1:])
        table.append(row)
        nxt: JPoint = (row[-1][0], row[-1][1], 1)
        nxt = _jac_add_affine(nxt, base)
        base = _jac_to_affine(nxt)
    return table


def _table() -> list[list[Point]]:
    global _g_table
    if _g_table is None:
        _g_table = _build_g_table()
    return _g_table


def mult_g_jacobian(scalar: int) -> JPoint:
    """scalar * G via the window table."""
    scalar %= Q
    table = _table()
    acc = _JINF
    for w in range(_N_WINDOWS):
        window = (scalar >> (8 * w)) & 0xFF
        if window:
            acc = _jac_add_affine(acc, table[w][window - 1])
    return acc


def mult_g(scalar: int) -> Point:
    return _jac_to_affine(mult_g_jacobian(scalar))


# ---------------------------------------------------------------------------
# Serialization

def compress(pt: Point) -> bytes:
    if pt is None:
        raise ValueError("cannot serialize the point at infinity")
    x, y = pt
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


def decompress(data: bytes) -> Point:
    if len(data) != 33 or data[0] not in (2, 3):
        raise ValueError("bad compressed point encoding")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("x coordinate out of range")
    y2 = (x * x * x + 7) % P
    y = pow(y2, (P + 1) // 4, P)
    if y * y % P != y2:
        raise ValueError("point not on curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return (x, y)
