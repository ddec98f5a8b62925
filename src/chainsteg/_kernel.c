/* Compiled grinding kernel: secp256k1 fixed-base derivation and digest
 * scanning with 4x64-bit field limbs, batch inversion, and single-block
 * SHA-256 / RIPEMD-160, so the whole attempt loop runs in C without the GIL.
 *
 * Results are bit-identical to backend.PureBackend, the reference; the
 * parity tests enforce it. Python-visible: derive_digest, grind_scan and
 * _microbench.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>
#include <time.h>

typedef uint64_t u64;
typedef uint32_t u32;
typedef uint8_t u8;
typedef unsigned __int128 u128;

/* ------------------------------------------------------------------------
 * Field arithmetic mod p = 2^256 - 2^32 - 977, four little-endian limbs.
 * Every operation returns a fully reduced value (< p). */

#define FE_C 0x1000003D1ULL /* 2^256 mod p */
#define FE_P0 0xFFFFFFFEFFFFFC2FULL

static const u64 Q_LIMB[4] = {
    0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
    0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL,
};

static inline void fe_set(u64 *r, const u64 *a)
{
    r[0] = a[0]; r[1] = a[1]; r[2] = a[2]; r[3] = a[3];
}

static inline int fe_is_zero(const u64 *a)
{
    return (a[0] | a[1] | a[2] | a[3]) == 0;
}

/* r >= p only when limbs 1..3 are all ones and limb 0 >= FE_P0; then
 * r - p = r + FE_C mod 2^256, which clears limbs 1..3. */
static inline void fe_final(u64 *r, u64 r0, u64 r1, u64 r2, u64 r3)
{
    if (r3 == ~0ULL && r2 == ~0ULL && r1 == ~0ULL && r0 >= FE_P0) {
        r0 += FE_C;
        r1 = r2 = r3 = 0;
    }
    r[0] = r0; r[1] = r1; r[2] = r2; r[3] = r3;
}

/* Reduce the 512-bit t by folding the high half with 2^256 = FE_C (mod p). */
static inline void fe_reduce8(u64 *r, const u64 *t)
{
    u128 acc;
    u64 r0, r1, r2, r3;
    acc = (u128)t[4] * FE_C + t[0]; r0 = (u64)acc; acc >>= 64;
    acc += (u128)t[5] * FE_C + t[1]; r1 = (u64)acc; acc >>= 64;
    acc += (u128)t[6] * FE_C + t[2]; r2 = (u64)acc; acc >>= 64;
    acc += (u128)t[7] * FE_C + t[3]; r3 = (u64)acc; acc >>= 64;
    acc = (u128)(u64)acc * FE_C + r0; r0 = (u64)acc; acc >>= 64;
    acc += r1; r1 = (u64)acc; acc >>= 64;
    acc += r2; r2 = (u64)acc; acc >>= 64;
    acc += r3; r3 = (u64)acc; acc >>= 64;
    if ((u64)acc) { /* overflowed 2^256 once more: the value is now small */
        acc = (u128)r0 + FE_C; r0 = (u64)acc; acc >>= 64;
        acc += r1; r1 = (u64)acc; acc >>= 64;
        acc += r2; r2 = (u64)acc; acc >>= 64;
        r3 += (u64)acc;
    }
    fe_final(r, r0, r1, r2, r3);
}

/* Comba column accumulation into the 192-bit (c2:c1:c0). */
#define MULADD(A, B) do { \
        u128 _t = (u128)(A) * (B); \
        u64 _lo = (u64)_t, _hi = (u64)(_t >> 64); \
        c0 += _lo; _hi += (c0 < _lo); c1 += _hi; c2 += (c1 < _hi); \
    } while (0)
#define COLUMN(X) do { (X) = c0; c0 = c1; c1 = c2; c2 = 0; } while (0)

static inline void fe_mul(u64 *r, const u64 *a, const u64 *b)
{
    u64 c0 = 0, c1 = 0, c2 = 0, t[8];
    MULADD(a[0], b[0]); COLUMN(t[0]);
    MULADD(a[0], b[1]); MULADD(a[1], b[0]); COLUMN(t[1]);
    MULADD(a[0], b[2]); MULADD(a[1], b[1]); MULADD(a[2], b[0]); COLUMN(t[2]);
    MULADD(a[0], b[3]); MULADD(a[1], b[2]); MULADD(a[2], b[1]); MULADD(a[3], b[0]);
    COLUMN(t[3]);
    MULADD(a[1], b[3]); MULADD(a[2], b[2]); MULADD(a[3], b[1]); COLUMN(t[4]);
    MULADD(a[2], b[3]); MULADD(a[3], b[2]); COLUMN(t[5]);
    MULADD(a[3], b[3]); COLUMN(t[6]);
    t[7] = c0;
    fe_reduce8(r, t);
}

/* Adds 2 A B: each cross product of a square is computed once. */
#define MULADD2(A, B) do { \
        u128 _t = (u128)(A) * (B); \
        u64 _lo = (u64)_t, _hi = (u64)(_t >> 64), _h; \
        c0 += _lo; _h = _hi + (c0 < _lo); c1 += _h; c2 += (c1 < _h); \
        c0 += _lo; _h = _hi + (c0 < _lo); c1 += _h; c2 += (c1 < _h); \
    } while (0)

static inline void fe_sqr(u64 *r, const u64 *a)
{
    u64 c0 = 0, c1 = 0, c2 = 0, t[8];
    MULADD(a[0], a[0]); COLUMN(t[0]);
    MULADD2(a[0], a[1]); COLUMN(t[1]);
    MULADD2(a[0], a[2]); MULADD(a[1], a[1]); COLUMN(t[2]);
    MULADD2(a[0], a[3]); MULADD2(a[1], a[2]); COLUMN(t[3]);
    MULADD2(a[1], a[3]); MULADD(a[2], a[2]); COLUMN(t[4]);
    MULADD2(a[2], a[3]); COLUMN(t[5]);
    MULADD(a[3], a[3]); COLUMN(t[6]);
    t[7] = c0;
    fe_reduce8(r, t);
}

static inline void fe_add(u64 *r, const u64 *a, const u64 *b)
{
    u128 acc;
    u64 r0, r1, r2, r3;
    acc = (u128)a[0] + b[0]; r0 = (u64)acc; acc >>= 64;
    acc += (u128)a[1] + b[1]; r1 = (u64)acc; acc >>= 64;
    acc += (u128)a[2] + b[2]; r2 = (u64)acc; acc >>= 64;
    acc += (u128)a[3] + b[3]; r3 = (u64)acc; acc >>= 64;
    if ((u64)acc) { /* a + b >= 2^256: subtract p by adding FE_C */
        acc = (u128)r0 + FE_C; r0 = (u64)acc; acc >>= 64;
        acc += r1; r1 = (u64)acc; acc >>= 64;
        acc += r2; r2 = (u64)acc; acc >>= 64;
        r3 += (u64)acc;
    }
    fe_final(r, r0, r1, r2, r3);
}

static inline void fe_sub(u64 *r, const u64 *a, const u64 *b)
{
    u128 acc;
    u64 r0, r1, r2, r3, borrow;
    acc = (u128)a[0] - b[0]; r0 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
    acc = (u128)a[1] - b[1] - borrow; r1 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
    acc = (u128)a[2] - b[2] - borrow; r2 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
    acc = (u128)a[3] - b[3] - borrow; r3 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
    if (borrow) { /* wrapped below zero: add p by subtracting FE_C */
        acc = (u128)r0 - FE_C; r0 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
        acc = (u128)r1 - borrow; r1 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
        acc = (u128)r2 - borrow; r2 = (u64)acc; borrow = (u64)(acc >> 64) & 1;
        r3 -= borrow;
    }
    r[0] = r0; r[1] = r1; r[2] = r2; r[3] = r3;
}

static inline void fe_sqr_n(u64 *r, const u64 *a, int n)
{
    fe_sqr(r, a);
    while (--n > 0)
        fe_sqr(r, r);
}

/* a^(p-2) by the addition chain libsecp256k1 uses: 255 squarings and 15
 * multiplies. p - 2 in binary is 223 ones, a zero, 22 ones, then 0000101101;
 * xN below is a^(2^N - 1). */
static void fe_inv(u64 *r, const u64 *a)
{
    u64 x2[4], x3[4], x6[4], x9[4], x11[4], x22[4], x44[4], x88[4], x176[4],
        x220[4], x223[4], t[4];
    fe_sqr(x2, a); fe_mul(x2, x2, a);
    fe_sqr(x3, x2); fe_mul(x3, x3, a);
    fe_sqr_n(x6, x3, 3); fe_mul(x6, x6, x3);
    fe_sqr_n(x9, x6, 3); fe_mul(x9, x9, x3);
    fe_sqr_n(x11, x9, 2); fe_mul(x11, x11, x2);
    fe_sqr_n(x22, x11, 11); fe_mul(x22, x22, x11);
    fe_sqr_n(x44, x22, 22); fe_mul(x44, x44, x22);
    fe_sqr_n(x88, x44, 44); fe_mul(x88, x88, x44);
    fe_sqr_n(x176, x88, 88); fe_mul(x176, x176, x88);
    fe_sqr_n(x220, x176, 44); fe_mul(x220, x220, x44);
    fe_sqr_n(x223, x220, 3); fe_mul(x223, x223, x3);
    fe_sqr_n(t, x223, 23); fe_mul(t, t, x22);
    fe_sqr_n(t, t, 5); fe_mul(t, t, a);
    fe_sqr_n(t, t, 3); fe_mul(t, t, x2);
    fe_sqr_n(t, t, 2); fe_mul(r, t, a);
}

/* ------------------------------------------------------------------------
 * Jacobian points on y^2 = x^3 + 7: x = X/Z^2, y = Y/Z^3, Z = 0 is infinity. */

typedef struct {
    u64 X[4], Y[4], Z[4];
} jpt;

static inline void jpt_set_infinity(jpt *p)
{
    memset(p, 0, sizeof(*p));
    p->X[0] = 1;
    p->Y[0] = 1;
}

static inline int jpt_is_infinity(const jpt *p)
{
    return fe_is_zero(p->Z);
}

/* r may alias p: p's coordinates are read before r's are written. */
static void jpt_double(jpt *r, const jpt *p)
{
    u64 a[4], b[4], c[4], d[4], e[4], f[4], t[4], z3[4];
    if (jpt_is_infinity(p) || fe_is_zero(p->Y)) {
        jpt_set_infinity(r);
        return;
    }
    fe_mul(z3, p->Y, p->Z); fe_add(z3, z3, z3);
    fe_sqr(a, p->X);
    fe_sqr(b, p->Y);
    fe_sqr(c, b);
    fe_add(t, p->X, b); fe_sqr(t, t); fe_sub(t, t, a); fe_sub(t, t, c);
    fe_add(d, t, t);                       /* D = 2((X+B)^2 - A - C) */
    fe_add(e, a, a); fe_add(e, e, a);      /* E = 3A */
    fe_sqr(f, e);
    fe_sub(t, f, d); fe_sub(r->X, t, d);   /* X3 = F - 2D */
    fe_sub(t, d, r->X); fe_mul(t, e, t);
    fe_add(c, c, c); fe_add(c, c, c); fe_add(c, c, c);
    fe_sub(r->Y, t, c);                    /* Y3 = E(D - X3) - 8C */
    fe_set(r->Z, z3);
}

/* r = p + (qx, qy) with the second point affine; r may alias p. */
static void jpt_add_affine(jpt *r, const jpt *p, const u64 *qx, const u64 *qy)
{
    u64 z1z1[4], u2[4], s2[4], h[4], rr[4], h2[4], h3[4], v[4], t[4];
    if (jpt_is_infinity(p)) {
        fe_set(r->X, qx);
        fe_set(r->Y, qy);
        memset(r->Z, 0, sizeof(r->Z));
        r->Z[0] = 1;
        return;
    }
    fe_sqr(z1z1, p->Z);
    fe_mul(u2, qx, z1z1);
    fe_mul(s2, qy, p->Z); fe_mul(s2, s2, z1z1);
    fe_sub(h, u2, p->X);
    fe_sub(rr, s2, p->Y);
    if (fe_is_zero(h)) {
        if (fe_is_zero(rr))
            jpt_double(r, p);
        else
            jpt_set_infinity(r);
        return;
    }
    fe_sqr(h2, h);
    fe_mul(h3, h, h2);
    fe_mul(v, p->X, h2);
    fe_sqr(t, rr); fe_sub(t, t, h3); fe_sub(t, t, v);
    fe_sub(r->X, t, v);                    /* X3 = r^2 - h^3 - 2v */
    fe_sub(t, v, r->X); fe_mul(t, rr, t);
    fe_mul(h3, p->Y, h3);
    fe_sub(r->Y, t, h3);                   /* Y3 = r(v - X3) - Y1 h^3 */
    fe_mul(r->Z, p->Z, h);                 /* Z3 = Z1 h */
}

/* Make the points with ok[i] set (all when ok is NULL) affine, X and Y in
 * place, with one inversion (Montgomery's trick). prefix holds n entries. */
static void jpt_normalize(jpt *pts, const u8 *ok, int n, u64 (*prefix)[4])
{
    u64 acc[4] = {1, 0, 0, 0}, inv[4], zi[4], zi2[4];
    int i;
    for (i = 0; i < n; i++) {
        fe_set(prefix[i], acc);
        if (!ok || ok[i])
            fe_mul(acc, acc, pts[i].Z);
    }
    fe_inv(inv, acc);
    for (i = n - 1; i >= 0; i--) {
        if (ok && !ok[i])
            continue;
        fe_mul(zi, inv, prefix[i]);        /* 1/Z_i */
        fe_mul(inv, inv, pts[i].Z);
        fe_sqr(zi2, zi);
        fe_mul(pts[i].X, pts[i].X, zi2);
        fe_mul(zi2, zi2, zi);
        fe_mul(pts[i].Y, pts[i].Y, zi2);
    }
}

/* ------------------------------------------------------------------------
 * Fixed-base comb: TBL[w][j] = (j + 1) * 2^(8w) * G, affine. A scalar
 * multiple of G is then one mixed addition per non-zero scalar byte. */

#define WINDOWS 32
#define ENTRIES 255

typedef struct {
    u64 x[4], y[4];
} apt;

static apt TBL[WINDOWS][ENTRIES];

static void build_table(void)
{
    static jpt scratch[ENTRIES];
    static u64 prefix[ENTRIES][4];
    u64 bx[4] = {0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                 0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL};
    u64 by[4] = {0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                 0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL};
    jpt next;
    int w, j;
    for (w = 0; w < WINDOWS; w++) {
        jpt_set_infinity(&scratch[0]);
        jpt_add_affine(&scratch[0], &scratch[0], bx, by);
        for (j = 1; j < ENTRIES; j++)
            jpt_add_affine(&scratch[j], &scratch[j - 1], bx, by);
        jpt_normalize(scratch, NULL, ENTRIES, prefix);
        for (j = 0; j < ENTRIES; j++) {
            fe_set(TBL[w][j].x, scratch[j].X);
            fe_set(TBL[w][j].y, scratch[j].Y);
        }
        /* the next window's base: 255 B + B = 2^8 B */
        jpt_set_infinity(&next);
        jpt_add_affine(&next, &next, TBL[w][ENTRIES - 1].x, TBL[w][ENTRIES - 1].y);
        jpt_add_affine(&next, &next, bx, by);
        jpt_normalize(&next, NULL, 1, prefix);
        fe_set(bx, next.X);
        fe_set(by, next.Y);
    }
}

/* scalar (< q, little-endian limbs) times G */
static void mult_gen(jpt *r, const u64 *scalar)
{
    int w;
    jpt_set_infinity(r);
    for (w = 0; w < WINDOWS; w++) {
        unsigned byte = (unsigned)(scalar[w >> 3] >> ((w & 7) * 8)) & 0xFF;
        if (byte)
            jpt_add_affine(r, r, TBL[w][byte - 1].x, TBL[w][byte - 1].y);
    }
}

/* ------------------------------------------------------------------------
 * Single-block SHA-256 (inputs here are at most 55 bytes) */

static const u32 SHA_K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static const u32 SHA_H0[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

static inline u32 rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }
static inline u32 rotl(u32 x, int n) { return (x << n) | (x >> (32 - n)); }

#define SHA_ROUND(a, b, c, d, e, f, g, h, i) do { \
        u32 _t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + \
                  SHA_K[i] + w[i]; \
        u32 _t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c)); \
        d += _t1; \
        h = _t1 + _t2; \
    } while (0)

static void sha256_short(const u8 *msg, int len, u8 *out)
{
    u8 block[64] = {0};
    u32 w[64], a, b, c, d, e, f, g, h, hh[8];
    int i;
    memcpy(block, msg, len);
    block[len] = 0x80;
    block[62] = (u8)(len >> 5); /* bit length, big-endian, < 2^16 */
    block[63] = (u8)(len << 3);
    for (i = 0; i < 16; i++)
        w[i] = (u32)block[4 * i] << 24 | (u32)block[4 * i + 1] << 16 |
               (u32)block[4 * i + 2] << 8 | block[4 * i + 3];
    for (i = 16; i < 64; i++)
        w[i] = w[i - 16] + w[i - 7] +
               (rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)) +
               (rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10));
    a = SHA_H0[0]; b = SHA_H0[1]; c = SHA_H0[2]; d = SHA_H0[3];
    e = SHA_H0[4]; f = SHA_H0[5]; g = SHA_H0[6]; h = SHA_H0[7];
    for (i = 0; i < 64; i += 8) {
        SHA_ROUND(a, b, c, d, e, f, g, h, i);
        SHA_ROUND(h, a, b, c, d, e, f, g, i + 1);
        SHA_ROUND(g, h, a, b, c, d, e, f, i + 2);
        SHA_ROUND(f, g, h, a, b, c, d, e, i + 3);
        SHA_ROUND(e, f, g, h, a, b, c, d, i + 4);
        SHA_ROUND(d, e, f, g, h, a, b, c, i + 5);
        SHA_ROUND(c, d, e, f, g, h, a, b, i + 6);
        SHA_ROUND(b, c, d, e, f, g, h, a, i + 7);
    }
    hh[0] = a; hh[1] = b; hh[2] = c; hh[3] = d;
    hh[4] = e; hh[5] = f; hh[6] = g; hh[7] = h;
    for (i = 0; i < 8; i++) {
        u32 v = SHA_H0[i] + hh[i];
        out[4 * i] = (u8)(v >> 24);
        out[4 * i + 1] = (u8)(v >> 16);
        out[4 * i + 2] = (u8)(v >> 8);
        out[4 * i + 3] = (u8)v;
    }
}

/* ------------------------------------------------------------------------
 * Single-block RIPEMD-160 of exactly 32 bytes */

static const u8 RMD_RL[80] = {
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8,
    3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12,
    1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2,
    4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13,
};
static const u8 RMD_RR[80] = {
    5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12,
    6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2,
    15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13,
    8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14,
    12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11,
};
static const u8 RMD_SL[80] = {
    11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
    7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
    11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
    11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
    9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6,
};
static const u8 RMD_SR[80] = {
    8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
    9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
    9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
    15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
    8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11,
};
static const u32 RMD_KL[5] = {0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E};
static const u32 RMD_KR[5] = {0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0x00000000};

#define F0(x, y, z) ((x) ^ (y) ^ (z))
#define F1(x, y, z) (((x) & (y)) | (~(x) & (z)))
#define F2(x, y, z) (((x) | ~(y)) ^ (z))
#define F3(x, y, z) (((x) & (z)) | ((y) & ~(z)))
#define F4(x, y, z) ((x) ^ ((y) | ~(z)))

/* Sixteen steps of both lines; the left line uses FL, the right FR. */
#define RMD_ROUND(R, FL, FR) \
    for (j = 16 * (R); j < 16 * (R) + 16; j++) { \
        t = rotl(al + FL(bl, cl, dl) + x[RMD_RL[j]] + RMD_KL[R], RMD_SL[j]) + el; \
        al = el; el = dl; dl = rotl(cl, 10); cl = bl; bl = t; \
        t = rotl(ar + FR(br, cr, dr) + x[RMD_RR[j]] + RMD_KR[R], RMD_SR[j]) + er; \
        ar = er; er = dr; dr = rotl(cr, 10); cr = br; br = t; \
    }

static void ripemd160_32(const u8 *msg, u8 *out)
{
    u32 x[16] = {0}, h[5], t;
    u32 al = 0x67452301, bl = 0xEFCDAB89, cl = 0x98BADCFE, dl = 0x10325476, el = 0xC3D2E1F0;
    u32 ar = al, br = bl, cr = cl, dr = dl, er = el;
    int i, j;
    for (i = 0; i < 8; i++)
        x[i] = msg[4 * i] | (u32)msg[4 * i + 1] << 8 | (u32)msg[4 * i + 2] << 16 |
               (u32)msg[4 * i + 3] << 24;
    x[8] = 0x80;
    x[14] = 256; /* bit length, little-endian */
    RMD_ROUND(0, F0, F4)
    RMD_ROUND(1, F1, F3)
    RMD_ROUND(2, F2, F2)
    RMD_ROUND(3, F3, F1)
    RMD_ROUND(4, F4, F0)
    h[0] = 0xEFCDAB89 + cl + dr;
    h[1] = 0x98BADCFE + dl + er;
    h[2] = 0x10325476 + el + ar;
    h[3] = 0xC3D2E1F0 + al + br;
    h[4] = 0x67452301 + bl + cr;
    for (i = 0; i < 5; i++) {
        out[4 * i] = (u8)h[i];
        out[4 * i + 1] = (u8)(h[i] >> 8);
        out[4 * i + 2] = (u8)(h[i] >> 16);
        out[4 * i + 3] = (u8)(h[i] >> 24);
    }
}

/* ------------------------------------------------------------------------
 * The attempt pipeline */

#define MAX_BATCH 64
#define MAX_POSITIONS 24
#define MAX_TARGETS 20

static void be32_to_limbs(const u8 *data, u64 *r)
{
    int i, j;
    for (i = 0; i < 4; i++) {
        r[3 - i] = 0;
        for (j = 0; j < 8; j++)
            r[3 - i] = r[3 - i] << 8 | data[8 * i + j];
    }
}

/* 2^256 < 2q, so one conditional subtraction reduces a 256-bit value mod q. */
static void scalar_mod_q(u64 *s)
{
    u64 borrow = 0;
    int i;
    for (i = 3; i >= 0 && s[i] == Q_LIMB[i]; i--)
        ;
    if (i >= 0 && s[i] < Q_LIMB[i])
        return;
    for (i = 0; i < 4; i++) {
        u128 d = (u128)s[i] - Q_LIMB[i] - borrow;
        s[i] = (u64)d;
        borrow = (u64)(d >> 64) & 1;
    }
}

/* hash160 digests of the points derived for counters start..start+count-1:
 * point = (SHA-256(k || tag || counter BE64) mod q) G + gy. ok[i] = 0 marks
 * a degenerate index (the point at infinity); its digest is left unset. */
static void derive_batch(const u8 *k, u8 tag, u64 start, int count,
                         const u64 *gyx, const u64 *gyy, u8 *digests, u8 *ok)
{
    jpt pts[MAX_BATCH];
    u64 prefix[MAX_BATCH][4], scalar[4];
    u8 msg[41], hbuf[32], pub[33];
    int i, j;
    memcpy(msg, k, 32);
    msg[32] = tag;
    for (i = 0; i < count; i++) {
        u64 counter = start + (u64)i;
        for (j = 0; j < 8; j++)
            msg[33 + j] = (u8)(counter >> (8 * (7 - j)));
        sha256_short(msg, 41, hbuf);
        be32_to_limbs(hbuf, scalar);
        scalar_mod_q(scalar);
        mult_gen(&pts[i], scalar);
        jpt_add_affine(&pts[i], &pts[i], gyx, gyy);
        ok[i] = !jpt_is_infinity(&pts[i]);
    }
    jpt_normalize(pts, ok, count, prefix);
    for (i = 0; i < count; i++) {
        if (!ok[i])
            continue;
        pub[0] = 0x02 | (u8)(pts[i].Y[0] & 1);
        for (j = 0; j < 32; j++)
            pub[1 + j] = (u8)(pts[i].X[3 - j / 8] >> (8 * (7 - j % 8)));
        sha256_short(pub, 33, hbuf);
        ripemd160_32(hbuf, digests + 20 * i);
    }
}

/* Chunk value from digest bits: positions are LSB-indexed into the 160-bit
 * big-endian integer; the first position becomes the value's MSB. */
static inline u64 select_bits(const u8 *digest, const long *positions, int m)
{
    u64 out = 0;
    int i;
    for (i = 0; i < m; i++)
        out = out << 1 | ((digest[19 - (positions[i] >> 3)] >> (positions[i] & 7)) & 1);
    return out;
}

/* ------------------------------------------------------------------------
 * Python-visible API */

static int to_u64(PyObject *obj, void *out)
{
    u64 v = PyLong_AsUnsignedLongLong(obj);
    if (v == (u64)-1 && PyErr_Occurred())
        return 0;
    *(u64 *)out = v;
    return 1;
}

/* Parse the arguments shared by both calls: k (32 bytes), tag (0..255) and
 * the affine point gy as two ints below 2^256. */
static int parse_key(const u8 *k, Py_ssize_t klen, int tag, PyObject *gx, PyObject *gy,
                     u8 *kbuf, u64 *gyx, u64 *gyy)
{
    PyObject *coords[2] = {gx, gy};
    u64 *limbs[2] = {gyx, gyy};
    int i;
    if (klen != 32) {
        PyErr_SetString(PyExc_ValueError, "k must be 32 bytes");
        return 0;
    }
    if (tag < 0 || tag > 255) {
        PyErr_SetString(PyExc_ValueError, "tag must be in [0, 256)");
        return 0;
    }
    memcpy(kbuf, k, 32);
    for (i = 0; i < 2; i++) {
        PyObject *raw = PyObject_CallMethod(coords[i], "to_bytes", "is", 32, "big");
        if (raw == NULL)
            return 0;
        if (!PyBytes_Check(raw) || PyBytes_GET_SIZE(raw) != 32) {
            Py_DECREF(raw);
            PyErr_SetString(PyExc_TypeError, "gy coordinates must be ints");
            return 0;
        }
        be32_to_limbs((const u8 *)PyBytes_AS_STRING(raw), limbs[i]);
        Py_DECREF(raw);
    }
    return 1;
}

static PyObject *py_derive_digest(PyObject *self, PyObject *args)
{
    const u8 *k;
    Py_ssize_t klen;
    int tag;
    u64 counter, gyx[4], gyy[4];
    PyObject *gx, *gy;
    u8 kbuf[32], digest[20], ok;
    if (!PyArg_ParseTuple(args, "y#iO&OO:derive_digest", &k, &klen, &tag, to_u64,
                          &counter, &gx, &gy) ||
        !parse_key(k, klen, tag, gx, gy, kbuf, gyx, gyy))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    derive_batch(kbuf, (u8)tag, counter, 1, gyx, gyy, digest, &ok);
    Py_END_ALLOW_THREADS
    if (!ok)
        Py_RETURN_NONE;
    return PyBytes_FromStringAndSize((const char *)digest, 20);
}

PyDoc_STRVAR(derive_digest_doc,
"derive_digest(k, tag, counter, gy_x, gy_y) -> bytes | None\n\n"
"hash160 of the derived public key, or None for a degenerate index.");

/* Read a sequence of min_len..max_len ints, each in [lo, hi), into out;
 * returns the count, or -1 with ValueError or TypeError set. */
static Py_ssize_t parse_ints(PyObject *obj, const char *what, Py_ssize_t min_len,
                             Py_ssize_t max_len, long lo, long hi, long *out)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of ints");
    Py_ssize_t len, i;
    if (seq == NULL)
        return -1;
    len = PySequence_Fast_GET_SIZE(seq);
    if (len < min_len || len > max_len) {
        Py_DECREF(seq);
        PyErr_Format(PyExc_ValueError, "%zd %s, expected %zd to %zd", len, what,
                     min_len, max_len);
        return -1;
    }
    for (i = 0; i < len; i++) {
        int overflow;
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(seq, i), &overflow);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (overflow || v < lo || v >= hi) {
            Py_DECREF(seq);
            PyErr_Format(PyExc_ValueError, "%s must be in [%ld, %ld)", what, lo, hi);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(seq);
    return len;
}

static PyObject *py_grind_scan(PyObject *self, PyObject *args)
{
    const u8 *k;
    Py_ssize_t klen, m, n, n_open, i, j;
    int tag, batch;
    long positions[MAX_POSITIONS], targets[MAX_TARGETS];
    u64 first, budget, done = 0, last = 0, hit[MAX_TARGETS], gyx[4], gyy[4];
    PyObject *gx, *gy, *pos_obj, *tgt_obj, *hits;
    u8 kbuf[32], digests[MAX_BATCH * 20], ok[MAX_BATCH];
    u8 hit_digests[MAX_TARGETS * 20], filled[MAX_TARGETS] = {0};
    if (!PyArg_ParseTuple(args, "y#iOOO&O&OO:grind_scan", &k, &klen, &tag, &gx, &gy,
                          to_u64, &first, to_u64, &budget, &pos_obj, &tgt_obj) ||
        !parse_key(k, klen, tag, gx, gy, kbuf, gyx, gyy))
        return NULL;
    m = parse_ints(pos_obj, "bit positions", 0, MAX_POSITIONS, 0, 160, positions);
    if (m < 0)
        return NULL;
    n = parse_ints(tgt_obj, "targets", 1, MAX_TARGETS, 0, 1L << m, targets);
    if (n < 0)
        return NULL;
    /* counters past 2^64 - 1 do not exist: scan up to there, then refuse */
    int clamped = budget > 0 && budget - 1 > UINT64_MAX - first;
    if (clamped)
        budget = UINT64_MAX - first + 1;
    /* The last open target is hit after ~2^m attempts. Each batch pays one
     * inversion, and the last one derives up to batch - 1 counters past that
     * hit; a batch of ~2^(m/2) balances the two. The result is the same for
     * any batch. */
    batch = m >= 11 ? MAX_BATCH : 1 << ((m + 1) / 2);
    n_open = n;
    Py_BEGIN_ALLOW_THREADS
    while (done < budget && n_open > 0) {
        int count = budget - done > (u64)batch ? batch : (int)(budget - done);
        derive_batch(kbuf, (u8)tag, first + done, count, gyx, gyy, digests, ok);
        for (i = 0; i < count && n_open > 0; i++) {
            if (!ok[i])
                continue;
            long v = (long)select_bits(digests + 20 * i, positions, (int)m);
            /* the first still-open target with this value takes the counter */
            for (j = 0; j < n; j++) {
                if (!filled[j] && targets[j] == v) {
                    filled[j] = 1;
                    hit[j] = done + (u64)i;
                    memcpy(hit_digests + 20 * j, digests + 20 * i, 20);
                    n_open--;
                    break;
                }
            }
        }
        done += (u64)count;
    }
    Py_END_ALLOW_THREADS
    if (n_open > 0) {
        if (clamped)
            return PyErr_Format(PyExc_OverflowError, "grind counter passed 2^64 - 1");
        Py_RETURN_NONE;
    }
    hits = PyTuple_New(n);
    if (hits == NULL)
        return NULL;
    for (j = 0; j < n; j++) {
        PyObject *pair = Py_BuildValue("(Ky#)", (unsigned long long)(first + hit[j]),
                                       (const char *)(hit_digests + 20 * j), (Py_ssize_t)20);
        if (pair == NULL) {
            Py_DECREF(hits);
            return NULL;
        }
        PyTuple_SET_ITEM(hits, j, pair);
        if (hit[j] > last)
            last = hit[j];
    }
    return Py_BuildValue("(NK)", hits, (unsigned long long)(last + 1));
}

PyDoc_STRVAR(grind_scan_doc,
"grind_scan(k, tag, gy_x, gy_y, start, max_attempts, positions, targets)\n"
"    -> (((counter, digest), ...), attempts) | None\n\n"
"One scan of counters start, start + 1, ... that fills every target (1 to 20\n"
"chunk values, each below 2^len(positions)): a counter whose digest carries a\n"
"value on the selected bit positions goes to the first still-open target with\n"
"that value. Hits come back in target order; attempts is the offset of the\n"
"last hit + 1. None when max_attempts counters leave a target open.");

static double now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e9 + ts.tv_nsec;
}

static volatile u64 sink; /* keeps the timed loops from being optimised away */

static PyObject *py_microbench(PyObject *self, PyObject *args)
{
    long iters, i;
    u64 a[4] = {0x123456789ABCDEF0ULL, 0xFEDCBA9876543210ULL,
                0x0F1E2D3C4B5A6978ULL, 0x1122334455667788ULL};
    u64 b[4] = {0x123456789ABCAAA5ULL, 0xFEDCBA9876543210ULL,
                0x0F1E2D3C4B5A6978ULL, 0x1122334455667788ULL};
    u8 msg[41], h[32];
    jpt pt;
    double t0, fe_mul_ns, jpt_add_ns, fe_inv_ns, sha256_ns, ripemd_ns;
    if (!PyArg_ParseTuple(args, "l:_microbench", &iters))
        return NULL;
    if (iters < 100)
        return PyErr_Format(PyExc_ValueError, "iters must be at least 100");
    memset(msg, 0x42, sizeof(msg));
    Py_BEGIN_ALLOW_THREADS
    t0 = now_ns();
    for (i = 0; i < iters; i++)
        fe_mul(a, a, b);
    fe_mul_ns = (now_ns() - t0) / iters;
    fe_set(pt.X, a); fe_set(pt.Y, b);
    memset(pt.Z, 0, sizeof(pt.Z));
    pt.Z[0] = 1;
    t0 = now_ns();
    for (i = 0; i < iters / 10; i++)
        jpt_add_affine(&pt, &pt, b, a);
    jpt_add_ns = (now_ns() - t0) / (iters / 10);
    t0 = now_ns();
    for (i = 0; i < iters / 10; i++) {
        sha256_short(msg, 41, h);
        msg[0] = h[0];
    }
    sha256_ns = (now_ns() - t0) / (iters / 10);
    t0 = now_ns();
    for (i = 0; i < iters / 10; i++)
        ripemd160_32(h, h);
    ripemd_ns = (now_ns() - t0) / (iters / 10);
    t0 = now_ns();
    for (i = 0; i < iters / 100; i++)
        fe_inv(a, a);
    fe_inv_ns = (now_ns() - t0) / (iters / 100);
    sink = a[0] ^ pt.X[0] ^ h[0];
    Py_END_ALLOW_THREADS
    return Py_BuildValue("{sdsdsdsdsd}", "fe_mul_ns", fe_mul_ns, "jpt_add_ns", jpt_add_ns,
                         "fe_inv_ns", fe_inv_ns, "sha256_ns", sha256_ns,
                         "ripemd_ns", ripemd_ns);
}

PyDoc_STRVAR(microbench_doc,
"_microbench(iters) -> dict\n\n"
"Per-operation timings in ns (fe_mul, jpt_add, fe_inv, sha256, ripemd) for\n"
"the benchmark's layer rows; not part of the API.");

static PyMethodDef kernel_methods[] = {
    {"derive_digest", py_derive_digest, METH_VARARGS, derive_digest_doc},
    {"grind_scan", py_grind_scan, METH_VARARGS, grind_scan_doc},
    {"_microbench", py_microbench, METH_VARARGS, microbench_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "chainsteg._kernel",
    "Compiled secp256k1 derivation and grinding kernel.", -1, kernel_methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    build_table();
    return PyModule_Create(&kernel_module);
}
