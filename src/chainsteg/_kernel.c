/* Compiled kernel: secp256k1 fixed-base derivation and digest scanning with
 * 4x64-bit field limbs, SHA-256 and RIPEMD-160, so the whole attempt loop
 * runs in C without the GIL; the parser of a block's transaction rows,
 * which hashes each txid; the UTXO table, which keeps every unspent output
 * as a fixed-size entry of one array; and connect_records, which applies a
 * chain file's length-prefixed block records in one call. Every block,
 * created, mined (each a file of one record) or loaded, is applied by it,
 * and it checks every block rule, the coinbase cap included. It frames the
 * whole file in one walk, recording each record's and each transaction's
 * extent and counting the outputs; reserves the table once for them, so a
 * load never regrows it; hashes every record and transaction in one batch;
 * then checks each record and applies its transactions to the table
 * straight from its bytes. It returns one fixed-width row per block, so no
 * Python object is made per block or per unspent output: the ledger makes a
 * block when it is read, and the table builds an output's row only when it
 * is read. mult_g checks a private key on the comb, and decompress reads a
 * public one with a square root by an addition chain.
 *
 * SHA-256 has three paths, chosen once at module init, each after a
 * known-answer test. The compression of one stream runs on SHA-NI when the
 * CPU has it, ~45 ns per block, else in portable C. On a CPU with AVX-512 F
 * a batch of independent messages, such as connect_records' records and
 * transactions, is hashed in 16 lanes (Gueron and Krasnov's multi-buffer
 * method), 19.5 ns per block and lane, when its blocks keep at least
 * X16_MIN_LANES lanes busy: a load of the 181-block seed-5 reload chain
 * (20,078 blocks, 16.0 lanes busy) hashes in ~0.39 ms against ~0.9 ms on
 * SHA-NI, while a mined block's one record (2.5 busy) stays on SHA-NI
 * (2-vCPU Xeon VM, gcc -O3).
 *
 * The rows and the inputs and outputs tuples that the parser and the table
 * make hold only bytes and ints, so they can be in no reference cycle: each
 * is untracked from the cyclic GC as it is made, which spares every later
 * collection a walk over the parsed blocks.
 *
 * A grind scan derives counters in batches of 256 affine lanes: each comb
 * window's additions share one inversion (Montgomery's trick). A single
 * derivation and small batches take the Jacobian comb. The scan keeps its
 * last batch (the grind stream), and the next scan under the same key takes
 * the digests derived past the previous last hit. A scan also returns, on
 * request, its first non-hit counters with their digests (spares), so a MED
 * send derives its change addresses no second time.
 *
 * The batch's field work runs on one of two paths, chosen once at module
 * init like the SHA-256 compression: on a CPU with AVX-512 F and IFMA,
 * comb_affine8 works 8 lanes at a time in 5x52-bit limbs, and passes
 * known-answer tests against the portable 4x64 comb_affine first; any
 * other CPU keeps comb_affine. No build flag or setting selects it. On a
 * 2-vCPU Xeon VM (gcc -O3) a derivation in a 256-lane batch takes 1.7 us of
 * CPU time on the IFMA path against 6.2 us on the portable one, and a single
 * derive_digest 12.5 us (BENCH_18.json). Every inversion is a constant-time
 * safegcd of ~2.1 us, so each comb window's shared one costs a 256-lane
 * batch ~0.26 us per lane; the hashes, ~0.45 us, are now the largest single
 * part of a derivation.
 *
 * Results are bit-identical to backend.PureBackend, the reference; the
 * parity tests enforce it on every path. Python-visible: derive_digest,
 * mult_g, decompress, grind_scan, parse_transactions, UtxoTable,
 * connect_records, and _microbench, _derived, _comb_path, _hash_path and
 * _upper_state for measurements and tests.
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

/* ------------------------------------------------------------------------
 * Inversion mod p by Bernstein and Yang's safegcd ("Fast constant-time gcd
 * computation and modular inversion", TCHES 2019), as libsecp256k1's
 * modinv64 runs it. Values are five signed 62-bit limbs, limb i weighing
 * 2^(62 i). Ten rounds of 59 divsteps, 590 in all, take f = p and any g
 * below p to g = 0 and f = +-1, with d = +-1/g (mod p); g = 0 gives d = 0.
 * Each round builds the 2x2 matrix of its 59 divsteps from the low 64 bits
 * of f and g alone, then applies it to f and g (an exact division by 2^62)
 * and to d and e (mod p). The step count is fixed, and no branch or loop
 * bound reads the operand.
 *
 * A right shift of a negative int64_t or __int128 is gcc's arithmetic
 * (sign-extending) shift. No negative value is shifted left: the matrix
 * entries, which go negative, are shifted as u64. */

typedef __int128 i128;

typedef struct {
    int64_t v[5];
} s62;

/* 59 divsteps scaled by 2^62: [f, g] becomes [u f + v g, q f + r g] / 2^62 */
typedef struct {
    int64_t u, v, q, r;
} divmat;

#define M62 (UINT64_MAX >> 2)
#define P62_0 (-(int64_t)FE_C) /* p = -FE_C + 256 * 2^248: limbs 1..3 are 0 */
#define P62_4 256
#define P_INV62 0x27C7F6E22DDACACFULL /* 1/p mod 2^62 */

/* 59 divsteps on the low bits of f (odd) and g, with zeta = -(delta + 1/2);
 * returns the new zeta and sets the matrix in t. */
static int64_t divsteps_59(int64_t zeta, u64 f0, u64 g0, divmat *t)
{
    /* the identity times 8: with 59 doublings the matrix is scaled by 2^62 */
    u64 u = 8, v = 0, q = 0, r = 8, f = f0, g = g0, x, y, z, swap, odd;
    /* volatile keeps the compiler from turning the masks into branches */
    volatile u64 c1, c2;
    int i;
    for (i = 3; i < 62; i++) {
        c1 = (u64)(zeta >> 63); /* all ones when zeta < 0, i.e. delta > 0 */
        swap = c1;
        c2 = g & 1;
        odd = -c2;
        /* g odd: g += f, or g -= f when delta > 0 */
        x = (f ^ swap) - swap;
        y = (u ^ swap) - swap;
        z = (v ^ swap) - swap;
        g += x & odd;
        q += y & odd;
        r += z & odd;
        /* both: f takes the old g, and delta becomes 1 - delta */
        swap &= odd;
        zeta = (zeta ^ (int64_t)swap) - 1;
        f += g & swap;
        u += q & swap;
        v += r & swap;
        g >>= 1;
        u <<= 1;
        v <<= 1;
    }
    t->u = (int64_t)u;
    t->v = (int64_t)v;
    t->q = (int64_t)q;
    t->r = (int64_t)r;
    return zeta;
}

/* [d, e] = (t [d, e] + p [md, me]) / 2^62, md and me chosen to make the
 * division exact; d and e stay in (-2p, p). */
static void update_de(s62 *d, s62 *e, const divmat *t)
{
    const int64_t u = t->u, v = t->v, q = t->q, r = t->r;
    const int64_t sd = d->v[4] >> 63, se = e->v[4] >> 63;
    int64_t md = (u & sd) + (v & se), me = (q & sd) + (r & se);
    i128 cd = (i128)u * d->v[0] + (i128)v * e->v[0];
    i128 ce = (i128)q * d->v[0] + (i128)r * e->v[0];
    int i;
    md -= (int64_t)((P_INV62 * (u64)cd + (u64)md) & M62);
    me -= (int64_t)((P_INV62 * (u64)ce + (u64)me) & M62);
    cd += (i128)P62_0 * md;
    ce += (i128)P62_0 * me;
    cd >>= 62; /* the low 62 bits are now 0 */
    ce >>= 62;
    for (i = 1; i < 5; i++) {
        cd += (i128)u * d->v[i] + (i128)v * e->v[i];
        ce += (i128)q * d->v[i] + (i128)r * e->v[i];
        if (i == 4) {
            cd += (i128)P62_4 * md;
            ce += (i128)P62_4 * me;
        }
        d->v[i - 1] = (int64_t)((u64)cd & M62);
        e->v[i - 1] = (int64_t)((u64)ce & M62);
        cd >>= 62;
        ce >>= 62;
    }
    d->v[4] = (int64_t)cd;
    e->v[4] = (int64_t)ce;
}

/* [f, g] = t [f, g] / 2^62, an exact division */
static void update_fg(s62 *f, s62 *g, const divmat *t)
{
    const int64_t u = t->u, v = t->v, q = t->q, r = t->r;
    i128 cf = (i128)u * f->v[0] + (i128)v * g->v[0];
    i128 cg = (i128)q * f->v[0] + (i128)r * g->v[0];
    int i;
    cf >>= 62;
    cg >>= 62;
    for (i = 1; i < 5; i++) {
        cf += (i128)u * f->v[i] + (i128)v * g->v[i];
        cg += (i128)q * f->v[i] + (i128)r * g->v[i];
        f->v[i - 1] = (int64_t)((u64)cf & M62);
        g->v[i - 1] = (int64_t)((u64)cg & M62);
        cf >>= 62;
        cg >>= 62;
    }
    f->v[4] = (int64_t)cf;
    g->v[4] = (int64_t)cg;
}

/* d in (-2p, p), negated when sign < 0, into [0, p) with limbs 0..3 in
 * [0, 2^62): add p if negative, negate, carry, add p if still negative,
 * carry. */
static void normalize62(s62 *d, int64_t sign)
{
    int64_t *r = d->v, add, neg;
    int i, pass;
    for (pass = 0; pass < 2; pass++) {
        add = r[4] >> 63;
        r[0] += P62_0 & add;
        r[4] += P62_4 & add;
        if (pass == 0) {
            neg = sign >> 63;
            for (i = 0; i < 5; i++)
                r[i] = (r[i] ^ neg) - neg;
        }
        for (i = 0; i < 4; i++) {
            r[i + 1] += r[i] >> 62;
            r[i] &= (int64_t)M62;
        }
    }
}

static void fe_inv(u64 *r, const u64 *a)
{
    s62 d = {{0, 0, 0, 0, 0}}, e = {{1, 0, 0, 0, 0}}, f = {{P62_0, 0, 0, 0, P62_4}}, g;
    divmat t;
    int64_t zeta = -1; /* delta = 1/2 */
    u64 s[4], x[4], ge_p;
    u128 acc;
    int i;
    /* a mod p without a branch: a + FE_C carries past 2^256 exactly when
     * a >= p, and then its low 256 bits are a - p */
    acc = (u128)a[0] + FE_C;
    for (i = 0; i < 4; i++) {
        s[i] = (u64)acc;
        acc = (acc >> 64) + (i < 3 ? a[i + 1] : 0);
    }
    ge_p = -(u64)acc;
    for (i = 0; i < 4; i++)
        x[i] = (s[i] & ge_p) | (a[i] & ~ge_p);
    g.v[0] = (int64_t)(x[0] & M62);
    g.v[1] = (int64_t)((x[0] >> 62 | x[1] << 2) & M62);
    g.v[2] = (int64_t)((x[1] >> 60 | x[2] << 4) & M62);
    g.v[3] = (int64_t)((x[2] >> 58 | x[3] << 6) & M62);
    g.v[4] = (int64_t)(x[3] >> 56);
    for (i = 0; i < 10; i++) {
        zeta = divsteps_59(zeta, (u64)f.v[0], (u64)g.v[0], &t);
        update_de(&d, &e, &t);
        update_fg(&f, &g, &t);
    }
    normalize62(&d, f.v[4]); /* f = -1 leaves d = -1/a */
    r[0] = (u64)d.v[0] | (u64)d.v[1] << 62;
    r[1] = (u64)d.v[1] >> 2 | (u64)d.v[2] << 60;
    r[2] = (u64)d.v[2] >> 4 | (u64)d.v[3] << 58;
    r[3] = (u64)d.v[3] >> 6 | (u64)d.v[4] << 56;
}

/* fe_inv on edge operands (1, 2, p - 1, p - 2, G's x, one that takes 535
 * divsteps to reach g = 0 where random operands take at most ~530, so that
 * 9 rounds of 59 fall short, and p + 1 and 2^256 - 1 above p), then on 64
 * squarings of G's x: a (1/a) = 1 for each, and 0, given as 0 or p,
 * inverts to 0. Runs at module init. */
static int fe_inv_passes_kat(void)
{
    static const u64 ops[][4] = {
        {1, 0, 0, 0},
        {2, 0, 0, 0},
        {FE_P0 - 1, ~0ULL, ~0ULL, ~0ULL},
        {FE_P0 - 2, ~0ULL, ~0ULL, ~0ULL},
        {0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL, 0x55A06295CE870B07ULL,
         0x79BE667EF9DCBBACULL},
        {0xDCFC3B99F4AEB964ULL, 0xD953BFC8F2A4D25BULL, 0x1F6649D30C7A261CULL,
         0x1C68433715BA0BD5ULL},
        {FE_P0 + 1, ~0ULL, ~0ULL, ~0ULL},
        {~0ULL, ~0ULL, ~0ULL, ~0ULL},
        {0, 0, 0, 0},
        {FE_P0, ~0ULL, ~0ULL, ~0ULL},
    };
    const int n_ops = (int)(sizeof(ops) / sizeof(ops[0]));
    static const u64 one[4] = {1, 0, 0, 0};
    u64 a[4], inv[4], prod[4];
    int i;
    for (i = 0; i < n_ops + 64; i++) {
        if (i < n_ops)
            fe_set(a, ops[i]);
        else
            fe_sqr(a, i == n_ops ? ops[4] : a);
        fe_inv(inv, a);
        fe_mul(prod, a, inv);
        if ((i == n_ops - 2 || i == n_ops - 1) ? !fe_is_zero(inv)
                                                 : memcmp(prod, one, sizeof(one)) != 0)
            return 0;
    }
    return 1;
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

static apt TBL[WINDOWS][ENTRIES] __attribute__((aligned(64)));

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

/* byte w of a scalar in little-endian limbs: its comb entry in window w */
static inline unsigned scalar_byte(const u64 *scalar, int w)
{
    return (unsigned)(scalar[w >> 3] >> ((w & 7) * 8)) & 0xFF;
}

/* scalar (< q, little-endian limbs) times G */
static void mult_gen(jpt *r, const u64 *scalar)
{
    int w;
    jpt_set_infinity(r);
    for (w = 0; w < WINDOWS; w++) {
        unsigned byte = scalar_byte(scalar, w);
        if (byte)
            jpt_add_affine(r, r, TBL[w][byte - 1].x, TBL[w][byte - 1].y);
    }
}

/* ------------------------------------------------------------------------
 * SHA-256 of any length. The compression runs on SHA-NI when the CPU has
 * it (chosen once at module init) and on portable C otherwise; both pass a
 * known-answer test at init. */

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

static inline u32 load_be32(const u8 *p)
{
    return (u32)p[0] << 24 | (u32)p[1] << 16 | (u32)p[2] << 8 | p[3];
}

static inline u64 load_be64(const u8 *p)
{
    return (u64)load_be32(p) << 32 | load_be32(p + 4);
}

/* Folds n 64-byte blocks into the eight state words. */
typedef void sha256_compress_fn(u32 *state, const u8 *blocks, size_t n);

#define SHA_ROUND(a, b, c, d, e, f, g, h, i) do { \
        u32 _t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + \
                  SHA_K[i] + w[i]; \
        u32 _t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c)); \
        d += _t1; \
        h = _t1 + _t2; \
    } while (0)

static void sha256_compress_portable(u32 *state, const u8 *blocks, size_t n)
{
    u32 w[64], a, b, c, d, e, f, g, h;
    int i;
    for (; n > 0; n--, blocks += 64) {
        for (i = 0; i < 16; i++)
            w[i] = load_be32(blocks + 4 * i);
        for (i = 16; i < 64; i++)
            w[i] = w[i - 16] + w[i - 7] +
                   (rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)) +
                   (rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10));
        a = state[0]; b = state[1]; c = state[2]; d = state[3];
        e = state[4]; f = state[5]; g = state[6]; h = state[7];
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
        state[0] += a; state[1] += b; state[2] += c; state[3] += d;
        state[4] += e; state[5] += f; state[6] += g; state[7] += h;
    }
}

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>

/* Four rounds on four message words w with the constants K[k..k+3]. */
#define SHANI_ROUNDS(w, k) do { \
        __m128i _m = _mm_add_epi32((w), _mm_loadu_si128((const __m128i *)(SHA_K + (k)))); \
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, _m); \
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(_m, 0x0E)); \
    } while (0)

/* Group g of four rounds, with W[i] the i-th four message words: rounds on
 * cur = W[g], then msg2 finishes next as W[g + 1], and msg1 starts turning
 * prev = W[g - 1] into W[g + 3]. */
#define SHANI_GROUP(k, cur, prev, next) do { \
        SHANI_ROUNDS(cur, k); \
        next = _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur); \
        prev = _mm_sha256msg1_epu32(prev, cur); \
    } while (0)

__attribute__((target("sha,sse4.1")))
static void sha256_compress_shani(u32 *state, const u8 *blocks, size_t n)
{
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    __m128i abef, cdgh, abef_in, cdgh_in, w0, w1, w2, w3, t;
    /* state words a..h into the (a, b, e, f) and (c, d, g, h) lanes */
    t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)state), 0xB1);
    cdgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(state + 4)), 0x1B);
    abef = _mm_alignr_epi8(t, cdgh, 8);
    cdgh = _mm_blend_epi16(cdgh, t, 0xF0);
    for (; n > 0; n--, blocks += 64) {
        abef_in = abef;
        cdgh_in = cdgh;
        w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)blocks), bswap);
        w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(blocks + 16)), bswap);
        w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(blocks + 32)), bswap);
        w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(blocks + 48)), bswap);
        SHANI_ROUNDS(w0, 0);
        SHANI_ROUNDS(w1, 4);
        w0 = _mm_sha256msg1_epu32(w0, w1);
        SHANI_ROUNDS(w2, 8);
        w1 = _mm_sha256msg1_epu32(w1, w2);
        SHANI_GROUP(12, w3, w2, w0);
        SHANI_GROUP(16, w0, w3, w1);
        SHANI_GROUP(20, w1, w0, w2);
        SHANI_GROUP(24, w2, w1, w3);
        SHANI_GROUP(28, w3, w2, w0);
        SHANI_GROUP(32, w0, w3, w1);
        SHANI_GROUP(36, w1, w0, w2);
        SHANI_GROUP(40, w2, w1, w3);
        SHANI_GROUP(44, w3, w2, w0);
        SHANI_GROUP(48, w0, w3, w1);
        SHANI_GROUP(52, w1, w0, w2); /* the msg1 of this group and the next goes unused */
        SHANI_GROUP(56, w2, w1, w3);
        SHANI_ROUNDS(w3, 60);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    t = _mm_shuffle_epi32(abef, 0x1B);
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128((__m128i *)state, _mm_blend_epi16(t, cdgh, 0xF0));
    _mm_storeu_si128((__m128i *)(state + 4), _mm_alignr_epi8(cdgh, t, 8));
}

static int cpu_has_sha_ni(void)
{
    unsigned a, b, c, d;
    if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSSE3) || !(c & bit_SSE4_1))
        return 0;
    return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA);
}
#endif

static sha256_compress_fn *sha256_compress = sha256_compress_portable;

/* The padded tail of a len-byte message: its last len % 64 bytes, the 0x80
 * marker, zeros and its length in bits, as one or two blocks in tail[0:128].
 * Returns how many blocks. */
static int sha256_tail(const u8 *msg, size_t len, u8 *tail)
{
    size_t rest = len % 64;
    int blocks = rest < 56 ? 1 : 2, i;
    u64 bits = (u64)len << 3;
    memset(tail, 0, (size_t)64 * blocks);
    if (rest)
        memcpy(tail, msg + (len - rest), rest);
    tail[rest] = 0x80;
    for (i = 0; i < 8; i++)
        tail[64 * blocks - 1 - i] = (u8)(bits >> (8 * i));
    return blocks;
}

/* The eight state words state[0], state[stride], ... big-endian into out */
static void store_digest(const u32 *state, int stride, u8 *out)
{
    int i;
    for (i = 0; i < 8; i++) {
        u32 word = state[i * stride];
        out[4 * i] = (u8)(word >> 24);
        out[4 * i + 1] = (u8)(word >> 16);
        out[4 * i + 2] = (u8)(word >> 8);
        out[4 * i + 3] = (u8)word;
    }
}

/* out may be msg: the message is read before the digest is written. */
static void sha256_with(sha256_compress_fn *compress, const u8 *msg, size_t len, u8 *out)
{
    u32 state[8];
    u8 tail[128];
    int blocks = sha256_tail(msg, len, tail);
    memcpy(state, SHA_H0, sizeof(state));
    compress(state, msg, len / 64);
    compress(state, tail, blocks);
    store_digest(state, 1, out);
}

static void sha256(const u8 *msg, size_t len, u8 *out)
{
    sha256_with(sha256_compress, msg, len, out);
}

static void sha256d(const u8 *msg, size_t len, u8 *out)
{
    u8 once[32];
    sha256(msg, len, once);
    sha256(once, 32, out);
}

/* A message of a batch: len bytes at at. */
typedef struct {
    const u8 *at;
    size_t len;
} hash_msg;

/* The blocks SHA-256 compresses for a len-byte message, its tail's included */
static inline size_t sha256_blocks(size_t len)
{
    return (len + 9 + 63) / 64;
}

#if defined(__x86_64__)
/* ------------------------------------------------------------------------
 * Multi-buffer SHA-256 in 16 lanes of AVX-512 F (Gueron and Krasnov,
 * "Parallelizing message schedules to accelerate the computations of hash
 * functions", J. Cryptographic Engineering 2012): lane l of each 512-bit
 * vector holds word j of message l's state or schedule, so one pass of the
 * 64 rounds compresses one block of each of 16 independent messages. Each
 * round is the scalar one, with vprord for the rotations and one vpternlogd
 * each for the three-way XORs, Ch and Maj. */

#define X16 __attribute__((target("avx512f")))
#define X16_LANES 16

#define ADD32(a, b) _mm512_add_epi32((a), (b))
#define ROR32(x, n) _mm512_ror_epi32((x), (n))
#define XOR3(a, b, c) _mm512_ternarylogic_epi32((a), (b), (c), 0x96)
#define SSIG0(x) XOR3(ROR32(x, 7), ROR32(x, 18), _mm512_srli_epi32((x), 3))
#define SSIG1(x) XOR3(ROR32(x, 17), ROR32(x, 19), _mm512_srli_epi32((x), 10))

/* Round i on w[i mod 16]; from round 16 on, that word is first extended
 * from the ones the recurrence reads (i - 16, i - 15, i - 7 and i - 2). */
#define X16_ROUND(a, b, c, d, e, f, g, h, i, extend) do { \
        __m512i _t1, _t2; \
        if (extend) \
            w[(i) & 15] = ADD32(ADD32(w[(i) & 15], SSIG0(w[((i) + 1) & 15])), \
                                ADD32(w[((i) + 9) & 15], SSIG1(w[((i) + 14) & 15]))); \
        _t1 = ADD32(ADD32(h, XOR3(ROR32(e, 6), ROR32(e, 11), ROR32(e, 25))), \
                    ADD32(_mm512_ternarylogic_epi32(e, f, g, 0xCA), \
                          ADD32(w[(i) & 15], _mm512_set1_epi32((int)SHA_K[i])))); \
        _t2 = ADD32(XOR3(ROR32(a, 2), ROR32(a, 13), ROR32(a, 22)), \
                    _mm512_ternarylogic_epi32(a, b, c, 0xE8)); \
        d = ADD32(d, _t1); \
        h = ADD32(_t1, _t2); \
    } while (0)

#define X16_EIGHT(i, extend) do { \
        X16_ROUND(a, b, c, d, e, f, g, h, (i), extend); \
        X16_ROUND(h, a, b, c, d, e, f, g, (i) + 1, extend); \
        X16_ROUND(g, h, a, b, c, d, e, f, (i) + 2, extend); \
        X16_ROUND(f, g, h, a, b, c, d, e, (i) + 3, extend); \
        X16_ROUND(e, f, g, h, a, b, c, d, (i) + 4, extend); \
        X16_ROUND(d, e, f, g, h, a, b, c, (i) + 5, extend); \
        X16_ROUND(c, d, e, f, g, h, a, b, (i) + 6, extend); \
        X16_ROUND(b, c, d, e, f, g, h, a, (i) + 7, extend); \
    } while (0)

/* Each word byte-swapped. AVX-512 F has no byte shuffle, so bytes 0 and 2
 * of the result come from a rotation left by 8, bytes 1 and 3 from one
 * right. */
X16 static inline __m512i bswap32x16(__m512i x)
{
    return _mm512_ternarylogic_epi32(_mm512_set1_epi32(0x00FF00FF), _mm512_rol_epi32(x, 8),
                                     _mm512_ror_epi32(x, 8), 0xCA);
}

/* w[t] gets big-endian word t of each lane's block: a 16x16 transpose of
 * the blocks' words. First a 4x4 transpose inside each 128-bit lane of each
 * group of four rows, after which 128-bit lane k of r[4 g + i] holds word
 * 4 k + i of rows 4 g .. 4 g + 3; then lane k of r[i], r[4 + i], r[8 + i]
 * and r[12 + i] are gathered into w[4 k + i]. */
X16 static void x16_load_words(__m512i *w, const u8 *const *blocks)
{
    __m512i r[16], t0, t1, t2, t3;
    int i;
    for (i = 0; i < 16; i++)
        r[i] = _mm512_loadu_si512(blocks[i]);
    for (i = 0; i < 16; i += 4) {
        t0 = _mm512_unpacklo_epi32(r[i], r[i + 1]);
        t1 = _mm512_unpacklo_epi32(r[i + 2], r[i + 3]);
        t2 = _mm512_unpackhi_epi32(r[i], r[i + 1]);
        t3 = _mm512_unpackhi_epi32(r[i + 2], r[i + 3]);
        r[i] = _mm512_unpacklo_epi64(t0, t1);
        r[i + 1] = _mm512_unpackhi_epi64(t0, t1);
        r[i + 2] = _mm512_unpacklo_epi64(t2, t3);
        r[i + 3] = _mm512_unpackhi_epi64(t2, t3);
    }
    for (i = 0; i < 4; i++) {
        t0 = _mm512_shuffle_i32x4(r[i], r[4 + i], 0x44);
        t1 = _mm512_shuffle_i32x4(r[i], r[4 + i], 0xEE);
        t2 = _mm512_shuffle_i32x4(r[8 + i], r[12 + i], 0x44);
        t3 = _mm512_shuffle_i32x4(r[8 + i], r[12 + i], 0xEE);
        w[i] = bswap32x16(_mm512_shuffle_i32x4(t0, t2, 0x88));
        w[4 + i] = bswap32x16(_mm512_shuffle_i32x4(t0, t2, 0xDD));
        w[8 + i] = bswap32x16(_mm512_shuffle_i32x4(t1, t3, 0x88));
        w[12 + i] = bswap32x16(_mm512_shuffle_i32x4(t1, t3, 0xDD));
    }
}

/* Fold the 64-byte block at blocks[l] into lane l of state, for every lane;
 * state[j][l] is word j of lane l's state. */
X16 static void x16_compress(u32 (*state)[X16_LANES], const u8 *const *blocks)
{
    __m512i w[16], a, b, c, d, e, f, g, h;
    x16_load_words(w, blocks);
    a = _mm512_load_si512(state[0]); b = _mm512_load_si512(state[1]);
    c = _mm512_load_si512(state[2]); d = _mm512_load_si512(state[3]);
    e = _mm512_load_si512(state[4]); f = _mm512_load_si512(state[5]);
    g = _mm512_load_si512(state[6]); h = _mm512_load_si512(state[7]);
    X16_EIGHT(0, 0);
    X16_EIGHT(8, 0);
    X16_EIGHT(16, 1);
    X16_EIGHT(24, 1);
    X16_EIGHT(32, 1);
    X16_EIGHT(40, 1);
    X16_EIGHT(48, 1);
    X16_EIGHT(56, 1);
    _mm512_store_si512(state[0], ADD32(a, _mm512_load_si512(state[0])));
    _mm512_store_si512(state[1], ADD32(b, _mm512_load_si512(state[1])));
    _mm512_store_si512(state[2], ADD32(c, _mm512_load_si512(state[2])));
    _mm512_store_si512(state[3], ADD32(d, _mm512_load_si512(state[3])));
    _mm512_store_si512(state[4], ADD32(e, _mm512_load_si512(state[4])));
    _mm512_store_si512(state[5], ADD32(f, _mm512_load_si512(state[5])));
    _mm512_store_si512(state[6], ADD32(g, _mm512_load_si512(state[6])));
    _mm512_store_si512(state[7], ADD32(h, _mm512_load_si512(state[7])));
}

/* What one lane is hashing: the block it reads next, how many blocks of
 * the message's own bytes and how many in all are left, and the padded
 * tail. */
typedef struct {
    const u8 *next;
    size_t own, left;
    size_t msg; /* the message, or SIZE_MAX when the lane is idle */
    u8 tail[128];
} x16_lane;

/* Start lane l on the next message of order, if one is left; returns
 * whether one was. */
static int x16_start(x16_lane *lane, u32 (*state)[X16_LANES], int l, const hash_msg *msgs,
                     const size_t *order, size_t n, size_t *taken)
{
    const hash_msg *m;
    int j;
    if (*taken == n) {
        lane->msg = SIZE_MAX;
        return 0;
    }
    lane->msg = order[(*taken)++];
    m = &msgs[lane->msg];
    lane->own = m->len / 64;
    lane->left = lane->own + (size_t)sha256_tail(m->at, m->len, lane->tail);
    lane->next = lane->own ? m->at : lane->tail;
    for (j = 0; j < 8; j++)
        state[j][l] = SHA_H0[j];
    return 1;
}

/* SHA-256 of each of n messages into out, the messages taken in the order
 * of their indices in order. Each lane is fed its message's next block, and
 * a lane whose message ends takes the next one, so giving the longest first
 * keeps the lanes full. An idle lane hashes a block of zeros, which is
 * dropped. */
X16 static void sha256_x16(const hash_msg *msgs, const size_t *order, size_t n, u8 (*out)[32])
{
    static const u8 idle[64];
    u32 state[8][X16_LANES] __attribute__((aligned(64)));
    x16_lane lanes[X16_LANES];
    const u8 *blocks[X16_LANES];
    size_t taken = 0, busy = 0;
    int l;
    for (l = 0; l < X16_LANES; l++)
        busy += (size_t)x16_start(&lanes[l], state, l, msgs, order, n, &taken);
    while (busy) {
        for (l = 0; l < X16_LANES; l++)
            blocks[l] = lanes[l].msg == SIZE_MAX ? idle : lanes[l].next;
        x16_compress(state, blocks);
        for (l = 0; l < X16_LANES; l++) {
            x16_lane *lane = &lanes[l];
            if (lane->msg == SIZE_MAX)
                continue;
            if (lane->own > 0 && --lane->own == 0)
                lane->next = lane->tail;
            else
                lane->next += 64;
            if (--lane->left > 0)
                continue;
            store_digest(&state[0][l], X16_LANES, out[lane->msg]);
            busy -= (size_t)!x16_start(lane, state, l, msgs, order, n, &taken);
        }
    }
    _mm256_zeroupper();
}

/* SHA-256 of each of n 32-byte digests, in place: the second hash of
 * sha256d, one padded block per lane. */
X16 static void sha256_x16_32(u8 (*digests)[32], size_t n)
{
    u8 padded[X16_LANES][64] __attribute__((aligned(64)));
    u32 state[8][X16_LANES] __attribute__((aligned(64)));
    const u8 *blocks[X16_LANES];
    size_t base, count, l;
    int j;
    memset(padded, 0, sizeof(padded));
    for (l = 0; l < X16_LANES; l++) {
        padded[l][32] = 0x80;
        padded[l][62] = 0x01; /* the length: 256 bits */
        blocks[l] = padded[l];
    }
    for (base = 0; base < n; base += X16_LANES) {
        count = n - base < X16_LANES ? n - base : X16_LANES;
        for (l = 0; l < count; l++)
            memcpy(padded[l], digests[base + l], 32);
        for (j = 0; j < 8; j++)
            for (l = 0; l < X16_LANES; l++)
                state[j][l] = SHA_H0[j];
        x16_compress(state, blocks);
        for (l = 0; l < count; l++)
            store_digest(&state[0][l], X16_LANES, digests[base + l]);
    }
    _mm256_zeroupper();
}

/* The bucket of a message of this many blocks in the longest-first order:
 * 0 for 255 blocks or more, 255 for one. */
static inline size_t x16_bucket(size_t blocks)
{
    return 255 - (blocks < 255 ? blocks : 255);
}
#endif /* __x86_64__ */

/* A batch takes the 16 lanes when they stay at least this busy on average:
 * one step of 16 blocks costs about as much as 7 blocks of one SHA-NI
 * stream (19.5 ns per block and lane against ~45 ns). Measured on a 2-vCPU
 * Xeon VM with connect_records on the first R records of a chain file, 16
 * lanes forced against SHA-NI: 1.05x the time at R = 4 (an estimate of 6.0
 * busy lanes), 0.94x at R = 5 (7.1), 0.55x at R = 16; a mined block's one
 * record (2.5) hashes 2x faster on SHA-NI. */
#define X16_MIN_LANES 7

static int hash_x16; /* whether sha256d_batch may take the 16 lanes */

/* sha256d of each of n messages into out[i]. The 16 lanes take a batch
 * whose blocks keep at least X16_MIN_LANES of them busy: the first hashes
 * need max(longest, total / 16) steps and the second ones n / 16, so a
 * batch led by one long message (a mined block's record with its few
 * transactions) stays on the one stream of sha256_compress. order is room
 * for n indices, which the 16 lanes fill longest first. */
static void sha256d_batch(const hash_msg *msgs, size_t n, u8 (*out)[32], size_t *order)
{
    size_t i;
#if defined(__x86_64__)
    size_t total = 0, longest = 0, steps, blocks, b, here;
    for (i = 0; i < n; i++) {
        blocks = sha256_blocks(msgs[i].len);
        total += blocks;
        longest = blocks > longest ? blocks : longest;
    }
    steps = (longest > (total + 15) / 16 ? longest : (total + 15) / 16) + (n + 15) / 16;
    if (hash_x16 && total + n >= X16_MIN_LANES * steps) {
        /* a counting sort: start[b] counts bucket b, then becomes its place */
        size_t start[256] = {0};
        for (i = 0; i < n; i++)
            start[x16_bucket(sha256_blocks(msgs[i].len))]++;
        for (b = 0, total = 0; b < 256; b++, total += here) {
            here = start[b];
            start[b] = total;
        }
        for (i = 0; i < n; i++)
            order[start[x16_bucket(sha256_blocks(msgs[i].len))]++] = i;
        sha256_x16(msgs, order, n, out);
        sha256_x16_32(out, n);
        return;
    }
#endif
    (void)order;
    for (i = 0; i < n; i++)
        sha256d(msgs[i].at, msgs[i].len, out[i]);
}

/* FIPS 180-2 examples: one block, one block plus a length-only block (56
 * bytes), and a full block plus a tail. */
static const char *const SHA_KAT[3][2] = {
    {"abc",
     "\xba\x78\x16\xbf\x8f\x01\xcf\xea\x41\x41\x40\xde\x5d\xae\x22\x23"
     "\xb0\x03\x61\xa3\x96\x17\x7a\x9c\xb4\x10\xff\x61\xf2\x00\x15\xad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "\x24\x8d\x6a\x61\xd2\x06\x38\xb8\xe5\xc0\x26\x93\x0c\x3e\x60\x39"
     "\xa3\x3c\xe4\x59\x64\xff\x21\x67\xf6\xec\xed\xd4\x19\xdb\x06\xc1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "\xcf\x5b\x16\xa7\x78\xaf\x83\x80\x03\x6c\xe5\x9e\x7b\x04\x92\x37"
     "\x0b\x24\x9b\x11\xe8\xf0\x7a\x51\xaf\xac\x45\x03\x7a\xfe\xe9\xd1"},
};

static int sha256_passes_kat(sha256_compress_fn *compress)
{
    u8 digest[32];
    int i;
    for (i = 0; i < 3; i++) {
        sha256_with(compress, (const u8 *)SHA_KAT[i][0], strlen(SHA_KAT[i][0]), digest);
        if (memcmp(digest, SHA_KAT[i][1], 32) != 0)
            return 0;
    }
    return 1;
}

#if defined(__x86_64__)
#define X16_KAT_LEN 200 /* every length below it, so each padding boundary up to 3 blocks */

/* The 16 lanes against the portable sha256d, on batches of 1, 15, 16, 17
 * and X16_KAT_LEN messages given shortest first: message i of a batch of n
 * is the first (61 i + n) mod X16_KAT_LEN bytes of a fixed pattern, and the
 * batch of X16_KAT_LEN holds one message of each length 0 .. X16_KAT_LEN - 1. */
static int x16_passes_kat(void)
{
    static const size_t sizes[5] = {1, 15, 16, 17, X16_KAT_LEN};
    u8 pattern[X16_KAT_LEN], want[32], got[X16_KAT_LEN][32];
    hash_msg msgs[X16_KAT_LEN];
    size_t order[X16_KAT_LEN], n, i;
    int s;
    for (i = 0; i < X16_KAT_LEN; i++)
        pattern[i] = (u8)(i * 167 + 13);
    for (s = 0; s < 5; s++) {
        n = sizes[s];
        for (i = 0; i < n; i++) {
            msgs[i].at = pattern;
            msgs[i].len = n == X16_KAT_LEN ? i : (61 * i + n) % X16_KAT_LEN;
            order[i] = i;
        }
        sha256_x16(msgs, order, n, got);
        sha256_x16_32(got, n);
        for (i = 0; i < n; i++) {
            sha256_with(sha256_compress_portable, msgs[i].at, msgs[i].len, want);
            sha256_with(sha256_compress_portable, want, 32, want);
            if (memcmp(want, got[i], 32) != 0)
                return 0;
        }
    }
    return 1;
}

static int x16_ok; /* the CPU has AVX-512 F and the 16 lanes passed their test */
#endif

#if defined(__x86_64__) || defined(__i386__)
static int sha_ni_ok; /* the CPU has SHA-NI and it passed its known-answer test */
#endif

/* Checks the portable compression, then switches to SHA-NI when the CPU has
 * it and it checks out too, and lets batches take the 16 lanes when the CPU
 * has AVX-512 F and they check out. Returns the name of a path that failed,
 * or NULL. */
static const char *sha256_select(void)
{
    if (!sha256_passes_kat(sha256_compress_portable))
        return "portable SHA-256";
#if defined(__x86_64__) || defined(__i386__)
    if (cpu_has_sha_ni()) {
        if (!sha256_passes_kat(sha256_compress_shani))
            return "SHA-NI SHA-256";
        sha256_compress = sha256_compress_shani;
        sha_ni_ok = 1;
    }
#endif
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        if (!x16_passes_kat())
            return "16-lane AVX-512 SHA-256";
        hash_x16 = x16_ok = 1;
    }
#endif
    return NULL;
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

#define SCAN_LANES 256      /* counters per grind_scan batch */
#define AFFINE_MIN_LANES 64 /* smaller batches take the Jacobian comb */
#define MAX_POSITIONS 24
#define MAX_TARGETS 20
#define MAX_SPARES (2 * MAX_TARGETS)

/* One counter's working state in derive_batch. */
typedef struct {
    u64 scalar[4];        /* SHA-256(k || tag || counter) mod q */
    apt pt;               /* the derived point, affine */
    u64 dx[4], prefix[4]; /* this window's x2 - x1, and the product before it */
} lane;

static void be32_to_limbs(const u8 *data, u64 *r)
{
    int i;
    for (i = 0; i < 4; i++)
        r[3 - i] = load_be64(data + 8 * i);
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

/* scalar G + gy for count <= AFFINE_MIN_LANES lanes: one mixed Jacobian
 * addition per non-zero scalar byte, then one shared normalization. ok[i] = 0
 * marks the point at infinity. */
static void comb_jacobian(lane *l, int count, const u64 *gyx, const u64 *gyy, u8 *ok)
{
    jpt pts[AFFINE_MIN_LANES];
    u64 prefix[AFFINE_MIN_LANES][4];
    int i;
    for (i = 0; i < count; i++) {
        mult_gen(&pts[i], l[i].scalar);
        jpt_add_affine(&pts[i], &pts[i], gyx, gyy);
        ok[i] = !jpt_is_infinity(&pts[i]);
    }
    jpt_normalize(pts, ok, count, prefix);
    for (i = 0; i < count; i++) {
        fe_set(l[i].pt.x, pts[i].X);
        fe_set(l[i].pt.y, pts[i].Y);
    }
}

/* scalar G + gy for count <= SCAN_LANES lanes in affine coordinates: every
 * lane starts at gy, and each comb window adds TBL[w][byte - 1] to the lanes
 * whose scalar byte is non-zero. The window's slopes share one inversion
 * (Montgomery's trick), so an addition costs ~6 multiplies against ~11 for a
 * Jacobian one. A lane whose addition meets x1 == x2 (a doubling, or a sum
 * at infinity) leaves the affine path and is derived on the Jacobian comb. */
static void comb_affine(lane *l, int count, const u64 *gyx, const u64 *gyy, u8 *ok)
{
    int adding[SCAN_LANES];
    u8 slow[SCAN_LANES] = {0};
    u64 acc[4], inv[4], dxi[4], lam[4], x3[4], t[4];
    int i, j, n, w;
    for (i = 0; i < count; i++) {
        fe_set(l[i].pt.x, gyx);
        fe_set(l[i].pt.y, gyy);
    }
    for (w = 0; w < WINDOWS; w++) {
        n = 0;
        acc[0] = 1; acc[1] = acc[2] = acc[3] = 0;
        for (i = 0; i < count; i++) {
            unsigned byte = scalar_byte(l[i].scalar, w);
            if (!byte || slow[i])
                continue;
            fe_sub(l[i].dx, TBL[w][byte - 1].x, l[i].pt.x);
            if (fe_is_zero(l[i].dx)) {
                slow[i] = 1;
                continue;
            }
            fe_set(l[i].prefix, acc);
            fe_mul(acc, acc, l[i].dx);
            adding[n++] = i;
        }
        if (n == 0)
            continue;
        fe_inv(inv, acc);
        for (j = n - 1; j >= 0; j--) {
            lane *p = &l[adding[j]];
            const apt *q = &TBL[w][scalar_byte(p->scalar, w) - 1];
            fe_mul(dxi, inv, p->prefix);       /* 1/dx */
            fe_mul(inv, inv, p->dx);
            fe_sub(lam, q->y, p->pt.y);
            fe_mul(lam, lam, dxi);
            fe_sqr(x3, lam); fe_sub(x3, x3, p->pt.x); fe_sub(x3, x3, q->x);
            fe_sub(t, p->pt.x, x3); fe_mul(t, lam, t);
            fe_sub(p->pt.y, t, p->pt.y);       /* y3 = lam (x1 - x3) - y1 */
            fe_set(p->pt.x, x3);               /* x3 = lam^2 - x1 - x2 */
        }
    }
    for (i = 0; i < count; i++) {
        ok[i] = 1;
        if (slow[i])
            comb_jacobian(&l[i], 1, gyx, gyy, &ok[i]);
    }
}

/* scalar G + gy for each of count lanes: comb_jacobian below
 * AFFINE_MIN_LANES, comb_wide from there up to SCAN_LANES */
typedef void comb_fn(lane *l, int count, const u64 *gyx, const u64 *gyy, u8 *ok);

/* comb_affine, or comb_affine8 once the CPU has AVX-512 IFMA and the path
 * passes its known-answer tests (chosen at module init; _comb_path swaps it) */
static comb_fn *comb_wide = comb_affine;

#if defined(__x86_64__)
/* ------------------------------------------------------------------------
 * comb_affine in 8 SIMD lanes with AVX-512 IFMA. An fe8 holds one field
 * element per lane as five 52-bit limbs (limb i weighs 2^(52 i)). fe8_mul
 * and fe8_sub take limbs below 2^52, the most the 52-bit multiplier reads,
 * and return them weakly reduced: limbs 0..3 below 2^52 and limb 4 below
 * 2^48 + 2^11, so the value is congruent mod p and below 2p, but not always
 * below p. */

#define IFMA __attribute__((target("avx512f,avx512ifma")))
#define M52 0xFFFFFFFFFFFFFULL
#define M48 0xFFFFFFFFFFFFULL
#define FE_R 0x1000003D10ULL /* 2^260 mod p */

typedef struct {
    __m512i v[5];
} fe8;

/* p and 32 p in 52-bit limbs; every limb of 32 p is at least 2^52. */
static const u64 P52[5] = {0xFFFFEFFFFFC2FULL, M52, M52, M52, M48};
static const u64 P52X32[5] = {0xFFFFEFFFFFC2FULL << 5, M52 << 5, M52 << 5, M52 << 5,
                              M48 << 5};

/* lane s of limbs[5][8], each limb below 2^52, fully reduced mod p */
static void fe_from52(u64 *r, u64 (*limbs)[8], int s)
{
    u64 l0 = limbs[0][s], l1 = limbs[1][s], l2 = limbs[2][s], l3 = limbs[3][s],
        l4 = limbs[4][s];
    u64 t[8] = {l0 | l1 << 52, l1 >> 12 | l2 << 40, l2 >> 24 | l3 << 28, l3 >> 36 | l4 << 16,
                l4 >> 48, 0, 0, 0};
    fe_reduce8(r, t);
}

#define LO(t, x, y) (t) = _mm512_madd52lo_epu64((t), (x), (y))
#define HI(t, x, y) (t) = _mm512_madd52hi_epu64((t), (x), (y))

/* Weak reduction of the limbs t0..t4, each below 2^63: the bits of t4 from
 * 2^256 up fold in as 2^256 = FE_C (mod p), then one carry pass. */
IFMA static inline void fe8_norm(fe8 *r, __m512i t0, __m512i t1, __m512i t2, __m512i t3,
                                 __m512i t4)
{
    const __m512i m52 = _mm512_set1_epi64(M52);
    LO(t0, _mm512_srli_epi64(t4, 48), _mm512_set1_epi64(FE_C));
    t4 = _mm512_and_si512(t4, _mm512_set1_epi64(M48));
    t1 = _mm512_add_epi64(t1, _mm512_srli_epi64(t0, 52)); t0 = _mm512_and_si512(t0, m52);
    t2 = _mm512_add_epi64(t2, _mm512_srli_epi64(t1, 52)); t1 = _mm512_and_si512(t1, m52);
    t3 = _mm512_add_epi64(t3, _mm512_srli_epi64(t2, 52)); t2 = _mm512_and_si512(t2, m52);
    t4 = _mm512_add_epi64(t4, _mm512_srli_epi64(t3, 52)); t3 = _mm512_and_si512(t3, m52);
    r->v[0] = t0; r->v[1] = t1; r->v[2] = t2; r->v[3] = t3; r->v[4] = t4;
}

/* Row i of the schoolbook product: a_i b_j adds its low 52 bits to column
 * i + j and its high 52 bits to column i + j + 1. */
#define MUL_ROW(i, c0, c1, c2, c3, c4, c5) do { \
        LO(c0, a[i], b[0]); HI(c1, a[i], b[0]); LO(c1, a[i], b[1]); HI(c2, a[i], b[1]); \
        LO(c2, a[i], b[2]); HI(c3, a[i], b[2]); LO(c3, a[i], b[3]); HI(c4, a[i], b[3]); \
        LO(c4, a[i], b[4]); HI(c5, a[i], b[4]); \
    } while (0)

/* Column src weighs 2^260 = FE_R (mod p) times column lo: its low 52 bits
 * times FE_R go into columns lo and hi, its high bits (below 2^4) into hi. */
#define FOLD(lo, hi, src) do { \
        __m512i _l = _mm512_and_si512((src), m52), _h = _mm512_srli_epi64((src), 52); \
        LO(lo, _l, r260); HI(hi, _l, r260); LO(hi, _h, r260); \
    } while (0)

IFMA static inline void fe8_mul(fe8 *r, const fe8 *x, const fe8 *y)
{
    const __m512i *a = x->v, *b = y->v;
    const __m512i m52 = _mm512_set1_epi64(M52), r260 = _mm512_set1_epi64(FE_R);
    __m512i t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, left;
    t0 = t1 = t2 = t3 = t4 = t5 = t6 = t7 = t8 = t9 = left = _mm512_setzero_si512();
    /* ten columns, each a sum of at most ten 52-bit halves: below 2^56 */
    MUL_ROW(0, t0, t1, t2, t3, t4, t5);
    MUL_ROW(1, t1, t2, t3, t4, t5, t6);
    MUL_ROW(2, t2, t3, t4, t5, t6, t7);
    MUL_ROW(3, t3, t4, t5, t6, t7, t8);
    MUL_ROW(4, t4, t5, t6, t7, t8, t9);
    FOLD(t0, t1, t5);
    FOLD(t1, t2, t6);
    FOLD(t2, t3, t7);
    FOLD(t3, t4, t8);
    FOLD(t4, left, t9);
    /* column 9's share of column 5 (below 2^42) folds once more */
    LO(t0, left, r260);
    HI(t1, left, r260);
    fe8_norm(r, t0, t1, t2, t3, t4);
}

/* a + 32 p - b keeps every limb non-negative for limbs of b below 2^52. */
IFMA static inline void fe8_sub(fe8 *r, const fe8 *a, const fe8 *b)
{
    __m512i t[5];
    int i;
    for (i = 0; i < 5; i++)
        t[i] = _mm512_add_epi64(a->v[i], _mm512_sub_epi64(_mm512_set1_epi64(P52X32[i]), b->v[i]));
    fe8_norm(r, t[0], t[1], t[2], t[3], t[4]);
}

/* Lanes where a weakly reduced a is 0 mod p: its limbs are those of 0 or p. */
IFMA static inline __mmask8 fe8_zero_lanes(const fe8 *a)
{
    __m512i any = _mm512_or_si512(_mm512_or_si512(a->v[0], a->v[1]),
                                  _mm512_or_si512(_mm512_or_si512(a->v[2], a->v[3]), a->v[4]));
    __mmask8 is_p = 0xFF;
    int i;
    for (i = 0; i < 5; i++)
        is_p = _mm512_mask_cmpeq_epi64_mask(is_p, a->v[i], _mm512_set1_epi64(P52[i]));
    return _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512()) | is_p;
}

IFMA static inline void fe8_load(fe8 *r, u64 (*limbs)[8])
{
    int i;
    for (i = 0; i < 5; i++)
        r->v[i] = _mm512_load_si512(limbs[i]);
}

IFMA static inline void fe8_store(u64 (*limbs)[8], const fe8 *a, __mmask8 lanes)
{
    int i;
    for (i = 0; i < 5; i++)
        _mm512_mask_store_epi64(limbs[i], lanes, a->v[i]);
}

/* 8 lanes of 4x64-bit limbs a[0..3] as 52-bit limbs */
IFMA static inline void fe8_from64(fe8 *r, const __m512i *a)
{
    const __m512i m52 = _mm512_set1_epi64(M52);
    r->v[0] = _mm512_and_si512(a[0], m52);
    r->v[1] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(a[0], 52), _mm512_slli_epi64(a[1], 12)), m52);
    r->v[2] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(a[1], 40), _mm512_slli_epi64(a[2], 24)), m52);
    r->v[3] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(a[2], 28), _mm512_slli_epi64(a[3], 36)), m52);
    r->v[4] = _mm512_srli_epi64(a[3], 16);
}

/* In the lanes set, the TBL coordinate that starts at u64 index at; 0 in
 * the others. */
IFMA static inline void fe8_gather(fe8 *r, __mmask8 lanes, __m512i at)
{
    __m512i a[4];
    int i;
    for (i = 0; i < 4; i++)
        a[i] = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), lanes,
                                           _mm512_add_epi64(at, _mm512_set1_epi64(i)),
                                           (const long long *)TBL, 8);
    fe8_from64(r, a);
}

/* Eight lanes of comb_affine8: counters 8g..8g+7 of the batch. */
typedef struct {
    u64 x[5][8], y[5][8];              /* the points */
    u64 qx[5][8], qy[5][8];            /* this window's comb entries */
    u64 dx[5][8], prefix[5][8];        /* qx - x, and the lane chain's product before it */
} __attribute__((aligned(64))) group8;

typedef struct {
    group8 g[SCAN_LANES / 8];
    u8 bytes[WINDOWS][SCAN_LANES];     /* scalar byte w of each lane; 0 past count */
    __mmask8 adding[SCAN_LANES / 8], slow[SCAN_LANES / 8];
} comb8_work;

/* comb_affine with the lanes 8 at a time: SIMD lane s of every group runs
 * its own Montgomery chain over counters s, 8 + s, 16 + s, ..., and each
 * window's 8 chain products share one scalar fe_inv. A lane that meets
 * x1 == x2 leaves for the Jacobian comb, as in comb_affine. Every point is
 * fully reduced back into 4x64 limbs, so results are comb_affine's. */
IFMA static void comb_affine8(lane *l, int count, const u64 *gyx, const u64 *gyy, u8 *ok)
{
    const __m512i zero = _mm512_setzero_si512();
    int groups = (count + 7) / 8, g, i, s, w;
    void *raw = PyMem_RawMalloc(sizeof(comb8_work) + 63);
    comb8_work *cw;
    u64 limbs[5][8] __attribute__((aligned(64))), inv64[4][8] __attribute__((aligned(64)));
    u64 chain[8][4], pre[8][4], inv[4];
    __m512i a[4];
    fe8 acc, one, inv8, d, dxi, lam, x3, t, gy_x, gy_y;
    if (raw == NULL) {
        comb_affine(l, count, gyx, gyy, ok);
        return;
    }
    cw = (comb8_work *)(((uintptr_t)raw + 63) & ~(uintptr_t)63);
    memset(cw->bytes, 0, sizeof(cw->bytes));
    for (i = 0; i < count; i++)
        for (w = 0; w < WINDOWS; w++)
            cw->bytes[w][i] = (u8)scalar_byte(l[i].scalar, w);
    for (i = 0; i < 4; i++)
        a[i] = _mm512_set1_epi64(gyx[i]);
    fe8_from64(&gy_x, a);
    for (i = 0; i < 4; i++)
        a[i] = _mm512_set1_epi64(gyy[i]);
    fe8_from64(&gy_y, a);
    for (g = 0; g < groups; g++) {
        fe8_store(cw->g[g].x, &gy_x, 0xFF);
        fe8_store(cw->g[g].y, &gy_y, 0xFF);
        cw->slow[g] = 0;
    }
    one.v[0] = _mm512_set1_epi64(1);
    one.v[1] = one.v[2] = one.v[3] = one.v[4] = zero;
    for (w = 0; w < WINDOWS; w++) {
        __mmask8 any = 0;
        acc = one;
        for (g = 0; g < groups; g++) {
            group8 *p = &cw->g[g];
            __m512i byte = _mm512_cvtepu8_epi64(
                _mm_loadl_epi64((const __m128i *)&cw->bytes[w][8 * g]));
            __mmask8 adding = _mm512_cmpneq_epi64_mask(byte, zero) & (__mmask8)~cw->slow[g];
            /* TBL[w][byte - 1], 8 u64 per entry */
            __m512i at = _mm512_slli_epi64(
                _mm512_add_epi64(byte, _mm512_set1_epi64(w * ENTRIES - 1)), 3);
            cw->adding[g] = 0;
            if (!adding)
                continue;
            fe8_gather(&t, adding, _mm512_add_epi64(at, _mm512_set1_epi64(4)));
            fe8_store(p->qy, &t, 0xFF);
            fe8_gather(&d, adding, at);
            fe8_store(p->qx, &d, 0xFF);
            fe8_load(&t, p->x);
            fe8_sub(&d, &d, &t);
            cw->slow[g] |= fe8_zero_lanes(&d) & adding;
            adding &= (__mmask8)~cw->slow[g];
            cw->adding[g] = adding;
            for (i = 0; i < 5; i++)
                d.v[i] = _mm512_mask_mov_epi64(one.v[i], adding, d.v[i]);
            fe8_store(p->dx, &d, 0xFF);
            fe8_store(p->prefix, &acc, 0xFF);
            fe8_mul(&acc, &acc, &d);
            any |= adding;
        }
        if (!any)
            continue;
        /* one inversion for the 8 chain products (Montgomery's trick again) */
        fe8_store(limbs, &acc, 0xFF);
        for (s = 0; s < 8; s++) {
            fe_from52(chain[s], limbs, s);
            if (s == 0)
                fe_set(pre[0], chain[0]);
            else
                fe_mul(pre[s], pre[s - 1], chain[s]);
        }
        fe_inv(inv, pre[7]);
        for (s = 7; s >= 0; s--) {
            u64 inv_s[4];
            if (s > 0) {
                fe_mul(inv_s, inv, pre[s - 1]);
                fe_mul(inv, inv, chain[s]);
            } else {
                fe_set(inv_s, inv);
            }
            for (i = 0; i < 4; i++)
                inv64[i][s] = inv_s[i];
        }
        for (i = 0; i < 4; i++)
            a[i] = _mm512_load_si512(inv64[i]);
        fe8_from64(&inv8, a);
        for (g = groups - 1; g >= 0; g--) {
            group8 *p = &cw->g[g];
            fe8 x, y, qx, qy;
            if (!cw->adding[g])
                continue;
            fe8_load(&t, p->prefix);
            fe8_mul(&dxi, &inv8, &t);          /* 1/dx */
            fe8_load(&d, p->dx);
            fe8_mul(&inv8, &inv8, &d);
            fe8_load(&x, p->x);
            fe8_load(&y, p->y);
            fe8_load(&qx, p->qx);
            fe8_load(&qy, p->qy);
            fe8_sub(&lam, &qy, &y);
            fe8_mul(&lam, &lam, &dxi);
            fe8_mul(&x3, &lam, &lam);
            fe8_sub(&x3, &x3, &x);
            fe8_sub(&x3, &x3, &qx);            /* x3 = lam^2 - x1 - x2 */
            fe8_sub(&t, &x, &x3);
            fe8_mul(&t, &lam, &t);
            fe8_sub(&y, &t, &y);               /* y3 = lam (x1 - x3) - y1 */
            fe8_store(p->x, &x3, cw->adding[g]);
            fe8_store(p->y, &y, cw->adding[g]);
        }
    }
    /* Legacy-SSE code (SHA-NI, the compiler's SSE2) runs slowly while the
     * upper vector state is dirty, and gcc 12 leaves out the vzeroupper on
     * the path through the loop below. */
    _mm256_zeroupper();
    for (i = 0; i < count; i++) {
        group8 *p = &cw->g[i / 8];
        ok[i] = 1;
        if (cw->slow[i / 8] >> (i % 8) & 1) {
            comb_jacobian(&l[i], 1, gyx, gyy, &ok[i]);
        } else {
            fe_from52(l[i].pt.x, p->x, i % 8);
            fe_from52(l[i].pt.y, p->y, i % 8);
        }
    }
    PyMem_RawFree(raw);
}

/* Edge operands for fe8_passes_kat, in 52-bit limbs */
static const u64 KAT52[7][5] = {
    {0xFFFFEFFFFFC2EULL, M52, M52, M52, M48}, /* p - 1 */
    {M52, M52, M52, M52, M52},                /* 2^260 - 1: every limb 2^52 - 1 */
    {0xFFFFEFFFFFC2FULL, M52, M52, M52, M48}, /* p, the limbs fe8_zero_lanes reads as 0 */
    {M52, M52, M52, M52, M48},                /* 2^256 - 1 */
    {1, 0, 0, 0, 0},
    {0, 0, 0, 0, 0},
    {0x2815B16F81798ULL, 0xDB2DCE28D959FULL, 0xE870B07029BFCULL, 0xBBAC55A06295CULL,
     0x79BE667EF9DCULL},                      /* G's x */
};

/* (a, b) of each lane in round 0, as rows of KAT52. Lane 1's product is
 * 2^260 - 1 unreduced: its top bits fold into limb 0, and the carry runs
 * through limbs 1, 2 and 3, all 2^52 - 1. */
static const int KAT_PAIRS[8][2] = {{0, 0}, {1, 4}, {1, 1}, {0, 1},
                                    {5, 0}, {2, 3}, {3, 4}, {6, 0}};

/* Eight rounds of fe8_mul and fe8_sub on 8 lanes, against fe_mul and fe_sub:
 * each result must be weakly reduced and equal mod p, and round r + 1 takes
 * round r's product and difference as its operands. */
IFMA static int fe8_passes_kat(void)
{
    u64 a[5][8] __attribute__((aligned(64))), b[5][8] __attribute__((aligned(64)));
    u64 x[4], y[4], want[4], got[4];
    fe8 fa, fb, prod, diff;
    int round, s, i;
    for (s = 0; s < 8; s++)
        for (i = 0; i < 5; i++) {
            a[i][s] = KAT52[KAT_PAIRS[s][0]][i];
            b[i][s] = KAT52[KAT_PAIRS[s][1]][i];
        }
    for (round = 0; round < 8; round++) {
        fe8_load(&fa, a);
        fe8_load(&fb, b);
        fe8_mul(&prod, &fa, &fb);
        fe8_sub(&diff, &fa, &fb);
        for (s = 0; s < 8; s++) {
            fe_from52(x, a, s);
            fe_from52(y, b, s);
            fe8_store(a, &prod, 1 << s);
            fe8_store(b, &diff, 1 << s);
            for (i = 0; i < 5; i++)
                if (a[i][s] >> (i < 4 ? 52 : 49) || b[i][s] >> (i < 4 ? 52 : 49))
                    return 0;
            fe_mul(want, x, y);
            fe_from52(got, a, s);
            if (memcmp(want, got, sizeof(got)) != 0)
                return 0;
            fe_sub(want, x, y);
            fe_from52(got, b, s);
            if (memcmp(want, got, sizeof(got)) != 0)
                return 0;
        }
    }
    return 1;
}

#define KAT_LANES 77 /* nine groups of 8 and part of a tenth */

/* comb_affine8 against comb_affine on KAT_LANES lanes at gy = G, scalars
 * from SHA-256: lane 0's scalar 1 makes its first addition a doubling, and
 * lane 1's q - 1 sums to the point at infinity. */
static int comb8_passes_kat(void)
{
    lane want[KAT_LANES], got[KAT_LANES];
    u8 ok_want[KAT_LANES], ok_got[KAT_LANES], h[32], i;
    for (i = 0; i < KAT_LANES; i++) {
        sha256(&i, 1, h);
        be32_to_limbs(h, want[i].scalar);
        scalar_mod_q(want[i].scalar);
    }
    memset(want[0].scalar, 0, sizeof(want[0].scalar));
    want[0].scalar[0] = 1;
    fe_set(want[1].scalar, Q_LIMB);
    want[1].scalar[0] -= 1;
    memcpy(got, want, sizeof(want));
    comb_affine(want, KAT_LANES, TBL[0][0].x, TBL[0][0].y, ok_want);
    comb_affine8(got, KAT_LANES, TBL[0][0].x, TBL[0][0].y, ok_got);
    for (i = 0; i < KAT_LANES; i++)
        if (ok_want[i] != ok_got[i] ||
            (ok_want[i] && memcmp(&want[i].pt, &got[i].pt, sizeof(apt)) != 0))
            return 0;
    return 1;
}

#endif /* __x86_64__ */

static comb_fn *comb_ifma; /* comb_affine8 once it passed its known-answer tests */

/* Chooses comb_affine8 when the CPU has AVX-512 F and IFMA and the path
 * passes its known-answer tests. Returns the name of a path that failed, or
 * NULL. Runs after build_table. */
static const char *comb_select(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma")) {
        if (!fe8_passes_kat() || !comb8_passes_kat())
            return "AVX-512 IFMA comb";
        comb_wide = comb_ifma = comb_affine8;
    }
#endif
    return NULL;
}

/* hash160 digests of the points derived for counters start..start+count-1
 * on comb: point = (SHA-256(k || tag || counter BE64) mod q) G + gy. ok[i] =
 * 0 marks a degenerate index (the point at infinity); its digest is left
 * unset. */
static void derive_batch(const u8 *k, u8 tag, u64 start, int count, const u64 *gyx,
                         const u64 *gyy, comb_fn *comb, lane *l, u8 *digests, u8 *ok)
{
    u8 msg[41], hbuf[32], pub[33];
    int i, j;
    memcpy(msg, k, 32);
    msg[32] = tag;
    for (i = 0; i < count; i++) {
        u64 counter = start + (u64)i;
        for (j = 0; j < 8; j++)
            msg[33 + j] = (u8)(counter >> (8 * (7 - j)));
        sha256(msg, 41, hbuf);
        be32_to_limbs(hbuf, l[i].scalar);
        scalar_mod_q(l[i].scalar);
    }
    comb(l, count, gyx, gyy, ok);
    for (i = 0; i < count; i++) {
        if (!ok[i])
            continue;
        pub[0] = 0x02 | (u8)(l[i].pt.y[0] & 1);
        for (j = 0; j < 32; j++)
            pub[1 + j] = (u8)(l[i].pt.x[3 - j / 8] >> (8 * (7 - j % 8)));
        sha256(pub, 33, hbuf);
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
    lane one;
    if (!PyArg_ParseTuple(args, "y#iO&OO:derive_digest", &k, &klen, &tag, to_u64,
                          &counter, &gx, &gy) ||
        !parse_key(k, klen, tag, gx, gy, kbuf, gyx, gyy))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    derive_batch(kbuf, (u8)tag, counter, 1, gyx, gyy, comb_jacobian, &one, digest, &ok);
    Py_END_ALLOW_THREADS
    if (!ok)
        Py_RETURN_NONE;
    return PyBytes_FromStringAndSize((const char *)digest, 20);
}

PyDoc_STRVAR(derive_digest_doc,
"derive_digest(k, tag, counter, gy_x, gy_y) -> bytes | None\n\n"
"hash160 of the derived public key, or None for a degenerate index.");

/* The field element in limbs a as a Python int */
static PyObject *fe_to_long(const u64 *a)
{
    u8 raw[32];
    int j;
    for (j = 0; j < 32; j++)
        raw[j] = (u8)(a[3 - j / 8] >> (8 * (7 - j % 8)));
    return PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "y#s",
                               (const char *)raw, (Py_ssize_t)32, "big");
}

static PyObject *py_mult_g(PyObject *self, PyObject *scalar)
{
    PyObject *raw = PyObject_CallMethod(scalar, "to_bytes", "is", 32, "big");
    u64 s[4], prefix[1][4];
    jpt r;
    if (raw == NULL)
        return NULL;
    if (!PyBytes_Check(raw) || PyBytes_GET_SIZE(raw) != 32) {
        Py_DECREF(raw);
        PyErr_SetString(PyExc_TypeError, "the scalar must be an int");
        return NULL;
    }
    be32_to_limbs((const u8 *)PyBytes_AS_STRING(raw), s);
    Py_DECREF(raw);
    scalar_mod_q(s);
    mult_gen(&r, s);
    if (jpt_is_infinity(&r))
        Py_RETURN_NONE;
    jpt_normalize(&r, NULL, 1, prefix);
    return Py_BuildValue("(NN)", fe_to_long(r.X), fe_to_long(r.Y));
}

PyDoc_STRVAR(mult_g_doc,
"mult_g(scalar) -> (x, y) | None\n\n"
"scalar times the generator, for an int scalar in [0, 2^256) taken mod q, as\n"
"an affine point of ints; None for the point at infinity. One comb\n"
"multiplication and one inversion; it checks a private key.");

/* r = a^(2^n) */
static void fe_sqr_times(u64 *r, const u64 *a, int n)
{
    fe_sqr(r, a);
    while (--n > 0)
        fe_sqr(r, r);
}

/* A square root of a mod p, a^((p + 1) / 4), in r; returns whether r^2 = a,
 * i.e. a square. (p + 1) / 4 is three runs of ones, of 223, 22 and 2 bits,
 * so the addition chain of libsecp256k1's fe_sqrt builds each x_k =
 * a^(2^k - 1) it needs from 1, 2, 3, 6, 9, 11, 22, 44, 88, 176, 220 and 223
 * ones, in 253 squarings and 13 multiplications. */
static int fe_sqrt(u64 *r, const u64 *a)
{
    u64 x2[4], x3[4], x6[4], x9[4], x11[4], x22[4], x44[4], x88[4], x176[4], x220[4], x223[4],
        t[4];
    fe_sqr(x2, a);
    fe_mul(x2, x2, a);
    fe_sqr(x3, x2);
    fe_mul(x3, x3, a);
    fe_sqr_times(x6, x3, 3);
    fe_mul(x6, x6, x3);
    fe_sqr_times(x9, x6, 3);
    fe_mul(x9, x9, x3);
    fe_sqr_times(x11, x9, 2);
    fe_mul(x11, x11, x2);
    fe_sqr_times(x22, x11, 11);
    fe_mul(x22, x22, x11);
    fe_sqr_times(x44, x22, 22);
    fe_mul(x44, x44, x22);
    fe_sqr_times(x88, x44, 44);
    fe_mul(x88, x88, x44);
    fe_sqr_times(x176, x88, 88);
    fe_mul(x176, x176, x88);
    fe_sqr_times(x220, x176, 44);
    fe_mul(x220, x220, x44);
    fe_sqr_times(x223, x220, 3);
    fe_mul(x223, x223, x3);
    fe_sqr_times(t, x223, 23);
    fe_mul(t, t, x22);
    fe_sqr_times(t, t, 6);
    fe_mul(t, t, x2);
    fe_sqr_times(r, t, 2);
    fe_sqr(t, r);
    return memcmp(t, a, sizeof(t)) == 0;
}

static PyObject *py_decompress(PyObject *self, PyObject *arg)
{
    static const u64 seven[4] = {7, 0, 0, 0}, zero[4] = {0, 0, 0, 0};
    Py_buffer buf;
    const u8 *raw;
    u64 x[4], y[4], y2[4];
    PyObject *result = NULL;
    if (PyObject_GetBuffer(arg, &buf, PyBUF_SIMPLE) < 0)
        return NULL;
    raw = buf.buf;
    if (buf.len != 33 || (raw[0] != 2 && raw[0] != 3)) {
        PyErr_SetString(PyExc_ValueError, "bad compressed point encoding");
        goto done;
    }
    be32_to_limbs(raw + 1, x);
    /* at or above p exactly when fe_final's test would reduce it */
    if (x[3] == ~0ULL && x[2] == ~0ULL && x[1] == ~0ULL && x[0] >= FE_P0) {
        PyErr_SetString(PyExc_ValueError, "x coordinate out of range");
        goto done;
    }
    fe_sqr(y2, x);
    fe_mul(y2, y2, x);
    fe_add(y2, y2, seven);
    if (!fe_sqrt(y, y2)) {
        PyErr_SetString(PyExc_ValueError, "point not on curve");
        goto done;
    }
    if ((y[0] & 1) != (raw[0] & 1))
        fe_sub(y, zero, y);
    result = Py_BuildValue("(NN)", fe_to_long(x), fe_to_long(y));
done:
    PyBuffer_Release(&buf);
    return result;
}

PyDoc_STRVAR(decompress_doc,
"decompress(data) -> (x, y)\n\n"
"The affine point of a 33-byte compressed encoding, as ec.decompress gives\n"
"it: ValueError('bad compressed point encoding') for another length or a\n"
"prefix byte other than 2 or 3, ('x coordinate out of range') for x >= p and\n"
"('point not on curve') when x^3 + 7 has no square root.");

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

/* The grind stream: the last batch grind_scan derived, with the key, tag
 * and gy it belongs to. The next transaction's scan starts a few counters
 * past the previous one's last hit, inside that batch, and takes its digests
 * before deriving more. Read and written only with the GIL held; never
 * persisted, and a scan under another key, tag or gy replaces it. */
static struct {
    u8 k[32], tag;
    u64 gyx[4], gyy[4], first;
    int count;
    u8 digests[SCAN_LANES * 20], ok[SCAN_LANES];
} stream;
static u64 derived_total; /* counters grind_scan has derived; read by _derived */

/* A scan's own working memory: threads grind without the GIL. */
typedef struct {
    lane lanes[SCAN_LANES];
    u8 digests[SCAN_LANES * 20], ok[SCAN_LANES];
} scan_work;

/* ((first + at[i], the 20 bytes at digests + 20 i) for i < count), or NULL
 * with an exception set */
static PyObject *pairs_tuple(u64 first, const u64 *at, const u8 *digests, Py_ssize_t count)
{
    PyObject *pairs = PyTuple_New(count);
    Py_ssize_t i;
    for (i = 0; pairs != NULL && i < count; i++) {
        PyObject *pair = Py_BuildValue("(Ky#)", (unsigned long long)(first + at[i]),
                                       (const char *)(digests + 20 * i), (Py_ssize_t)20);
        if (pair == NULL)
            Py_CLEAR(pairs);
        else
            PyTuple_SET_ITEM(pairs, i, pair);
    }
    return pairs;
}

static PyObject *py_grind_scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"", "", "", "", "", "", "", "", "spares", NULL};
    const u8 *k;
    Py_ssize_t klen, m, n, n_open, spares = 0, n_spare = 0, i, j;
    int tag, count = 0;
    long positions[MAX_POSITIONS], targets[MAX_TARGETS];
    u64 first, budget, done = 0, derived = 0, last = 0, hit[MAX_TARGETS], spare[MAX_SPARES],
        gyx[4], gyy[4];
    PyObject *gx, *gy, *pos_obj, *tgt_obj, *hits, *spare_pairs;
    u8 kbuf[32], hit_digests[MAX_TARGETS * 20], spare_digests[MAX_SPARES * 20],
        filled[MAX_TARGETS] = {0};
    comb_fn *wide = comb_wide;
    scan_work *work;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "y#iOOO&O&OO|$n:grind_scan", kwlist, &k,
                                     &klen, &tag, &gx, &gy, to_u64, &first, to_u64, &budget,
                                     &pos_obj, &tgt_obj, &spares) ||
        !parse_key(k, klen, tag, gx, gy, kbuf, gyx, gyy))
        return NULL;
    if (spares < 0 || spares > MAX_SPARES)
        return PyErr_Format(PyExc_ValueError, "spares must be in [0, %d]", MAX_SPARES);
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
    if ((work = PyMem_RawMalloc(sizeof(*work))) == NULL)
        return PyErr_NoMemory();
    if (stream.count > 0 && memcmp(stream.k, kbuf, 32) == 0 && stream.tag == tag &&
        memcmp(stream.gyx, gyx, sizeof(gyx)) == 0 && memcmp(stream.gyy, gyy, sizeof(gyy)) == 0 &&
        first >= stream.first && first - stream.first < (u64)stream.count) {
        int skip = (int)(first - stream.first);
        count = stream.count - skip;
        if ((u64)count > budget)
            count = (int)budget;
        memcpy(work->digests, stream.digests + 20 * skip, 20 * (size_t)count);
        memcpy(work->ok, stream.ok + skip, (size_t)count);
    }
    n_open = n;
    Py_BEGIN_ALLOW_THREADS
    /* work holds the digests of counters first + done + i, i < count: first
     * those taken from the stream, then each new batch. A batch may run past
     * the last hit; the result is the same for any batch. */
    for (;;) {
        for (i = 0; i < count && n_open > 0; i++) {
            if (!work->ok[i])
                continue;
            long v = (long)select_bits(work->digests + 20 * i, positions, (int)m);
            /* the first still-open target with this value takes the counter */
            for (j = 0; j < n; j++) {
                if (!filled[j] && targets[j] == v) {
                    filled[j] = 1;
                    hit[j] = done + (u64)i;
                    memcpy(hit_digests + 20 * j, work->digests + 20 * i, 20);
                    n_open--;
                    break;
                }
            }
            /* no target took it, and a later one will: a spare */
            if (j == n && n_spare < spares) {
                spare[n_spare] = done + (u64)i;
                memcpy(spare_digests + 20 * n_spare++, work->digests + 20 * i, 20);
            }
        }
        done += (u64)count;
        if (n_open == 0 || done >= budget)
            break;
        count = budget - done > SCAN_LANES ? SCAN_LANES : (int)(budget - done);
        derive_batch(kbuf, (u8)tag, first + done, count, gyx, gyy,
                     count < AFFINE_MIN_LANES ? comb_jacobian : wide, work->lanes,
                     work->digests, work->ok);
        derived += (u64)count;
    }
    Py_END_ALLOW_THREADS
    if (derived > 0) {
        memcpy(stream.k, kbuf, 32);
        stream.tag = (u8)tag;
        fe_set(stream.gyx, gyx);
        fe_set(stream.gyy, gyy);
        stream.first = first + done - (u64)count;
        stream.count = count;
        memcpy(stream.digests, work->digests, 20 * (size_t)count);
        memcpy(stream.ok, work->ok, (size_t)count);
        derived_total += derived;
    }
    PyMem_RawFree(work);
    if (n_open > 0) {
        if (clamped)
            return PyErr_Format(PyExc_OverflowError, "grind counter passed 2^64 - 1");
        Py_RETURN_NONE;
    }
    for (j = 0; j < n; j++)
        if (hit[j] > last)
            last = hit[j];
    if ((hits = pairs_tuple(first, hit, hit_digests, n)) == NULL)
        return NULL;
    if (spares == 0)
        return Py_BuildValue("(NK)", hits, (unsigned long long)(last + 1));
    if ((spare_pairs = pairs_tuple(first, spare, spare_digests, n_spare)) == NULL) {
        Py_DECREF(hits);
        return NULL;
    }
    return Py_BuildValue("(NKN)", hits, (unsigned long long)(last + 1), spare_pairs);
}

PyDoc_STRVAR(grind_scan_doc,
"grind_scan(k, tag, gy_x, gy_y, start, max_attempts, positions, targets, *, spares=0)\n"
"    -> (((counter, digest), ...), attempts[, ((counter, digest), ...)]) | None\n\n"
"One scan of counters start, start + 1, ... that fills every target (1 to 20\n"
"chunk values, each below 2^len(positions)): a counter whose digest carries a\n"
"value on the selected bit positions goes to the first still-open target with\n"
"that value. Hits come back in target order; attempts is the offset of the\n"
"last hit + 1. None when max_attempts counters leave a target open.\n\n"
"With spares > 0 (at most 40) a third item follows: the first spares counters\n"
"below the last hit that no target took, with their digests, in counter\n"
"order; a degenerate counter has no digest and is never one.\n\n"
"Counters are derived in batches, and the last batch is kept: a later scan\n"
"under the same k, tag and gy that starts inside it takes its digests. The\n"
"result never depends on it.");

/* Wire sizes: a transaction is at least its two u32 counts and its u64 fee;
 * an input row is prev_txid 32B, vout u32, address 20B; an output row is
 * field 20B, kind u8, amount u64. A block record is its header (height u64,
 * prev_hash 32B, timestamp u64, tx_count u32), its transactions and its
 * 32-byte hash. */
#define TX_MIN 16
#define INPUT_ROW 56
#define OUTPUT_ROW 29
#define BLOCK_HEAD 52

static PyObject *NAME_INPUTS, *NAME_OUTPUTS, *NAME_FEE, *NAME_TXID, *NO_ARGS;

/* The extent of the transaction at *pos of data[0:size]: its input and
 * output counts, and the offset past it in *pos. Every count is checked
 * against the bytes left before anything is sized from it. Returns NULL,
 * or what is wrong (the ValueError text of both parsers). */
static const char *tx_frame(const u8 *data, Py_ssize_t size, Py_ssize_t *pos,
                            Py_ssize_t *n_in, Py_ssize_t *n_out)
{
    Py_ssize_t off = *pos;
    if (size - off < TX_MIN)
        return "data ends inside a transaction";
    *n_in = load_be32(data + off);
    off += 4;
    /* the output count and the fee follow the inputs */
    if (*n_in > (size - off - 4 - 8) / INPUT_ROW)
        return "input count runs past the data";
    off += *n_in * INPUT_ROW;
    *n_out = load_be32(data + off);
    off += 4;
    if (*n_out > (size - off - 8) / OUTPUT_ROW)
        return "output count runs past the data";
    *pos = off + *n_out * OUTPUT_ROW + 8;
    return NULL;
}

/* A three-field row of a tuple subclass; steals a, b and c, which are bytes
 * and ints. Such a row can be in no reference cycle, so it is untracked:
 * the cyclic GC never scans it (CPython untracks only exact tuples). */
static PyObject *new_row(PyTypeObject *type, PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *row = NULL;
    if (a != NULL && b != NULL && c != NULL)
        row = type->tp_alloc(type, 3);
    if (row == NULL) {
        Py_XDECREF(a);
        Py_XDECREF(b);
        Py_XDECREF(c);
        return NULL;
    }
    PyObject_GC_UnTrack(row);
    PyTuple_SET_ITEM(row, 0, a);
    PyTuple_SET_ITEM(row, 1, b);
    PyTuple_SET_ITEM(row, 2, c);
    return row;
}

/* The output row at data: field, amount, kind. */
static PyObject *output_row(PyTypeObject *type, const u8 *data)
{
    return new_row(type, PyBytes_FromStringAndSize((const char *)data, 20),
                   PyLong_FromUnsignedLongLong(load_be64(data + 21)),
                   PyLong_FromLong(data[20]));
}

/* The transaction at *pos of data[0:size], with its txid and the offset
 * past it in *pos. */
static PyObject *parse_transaction(const u8 *data, Py_ssize_t size, Py_ssize_t *pos,
                                   PyTypeObject *tx_type, PyTypeObject *in_type,
                                   PyTypeObject *out_type)
{
    Py_ssize_t end = *pos, off = *pos + 4, n_in, n_out, i;
    PyObject *inputs = NULL, *outputs = NULL, *fee = NULL, *txid = NULL, *tx = NULL;
    const char *bad = tx_frame(data, size, &end, &n_in, &n_out);
    u8 digest[32];
    if (bad != NULL) {
        PyErr_SetString(PyExc_ValueError, bad);
        return NULL;
    }
    if ((inputs = PyTuple_New(n_in)) == NULL)
        return NULL;
    for (i = 0; i < n_in; i++, off += INPUT_ROW) {
        PyObject *row = new_row(
            in_type, PyBytes_FromStringAndSize((const char *)data + off, 32),
            PyLong_FromUnsignedLong(load_be32(data + off + 32)),
            PyBytes_FromStringAndSize((const char *)data + off + 36, 20));
        if (row == NULL)
            goto fail;
        PyTuple_SET_ITEM(inputs, i, row);
    }
    off += 4;
    if ((outputs = PyTuple_New(n_out)) == NULL)
        goto fail;
    for (i = 0; i < n_out; i++, off += OUTPUT_ROW) {
        PyObject *row = output_row(out_type, data + off);
        if (row == NULL)
            goto fail;
        PyTuple_SET_ITEM(outputs, i, row);
    }
    /* tuples of untracked rows: untracked before they are set, so the
     * transaction's attribute values hold nothing the GC has to scan */
    PyObject_GC_UnTrack(inputs);
    PyObject_GC_UnTrack(outputs);
    if ((fee = PyLong_FromUnsignedLongLong(load_be64(data + off))) == NULL)
        goto fail;
    sha256d(data + *pos, (size_t)(end - *pos), digest);
    if ((txid = PyBytes_FromStringAndSize((const char *)digest, 32)) == NULL)
        goto fail;
    /* object.__new__ and object.__setattr__: a frozen dataclass is filled
     * without its __init__, and txid seeds its cached property */
    tx = PyBaseObject_Type.tp_new(tx_type, NO_ARGS, NULL);
    if (tx == NULL || PyObject_GenericSetAttr(tx, NAME_INPUTS, inputs) < 0 ||
        PyObject_GenericSetAttr(tx, NAME_OUTPUTS, outputs) < 0 ||
        PyObject_GenericSetAttr(tx, NAME_FEE, fee) < 0 ||
        PyObject_GenericSetAttr(tx, NAME_TXID, txid) < 0)
        Py_CLEAR(tx);
    else
        *pos = end;
fail:
    Py_XDECREF(inputs);
    Py_XDECREF(outputs);
    Py_XDECREF(fee);
    Py_XDECREF(txid);
    return tx;
}

/* Rows are built with tp_alloc, so a row type must be a tuple subclass that
 * adds no instance fields (a NamedTuple). */
static int check_row_type(PyTypeObject *type, const char *what)
{
    if (PyType_IsSubtype(type, &PyTuple_Type) &&
        type->tp_basicsize == PyTuple_Type.tp_basicsize)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s must be a tuple subclass without instance fields", what);
    return 0;
}

static PyObject *py_parse_transactions(PyObject *self, PyObject *args)
{
    Py_buffer buf;
    Py_ssize_t offset, count, i;
    PyTypeObject *tx_type, *in_type, *out_type;
    PyObject *txs = NULL, *result = NULL;
    if (!PyArg_ParseTuple(args, "y*nnO!O!O!:parse_transactions", &buf, &offset, &count,
                          &PyType_Type, &tx_type, &PyType_Type, &in_type,
                          &PyType_Type, &out_type))
        return NULL;
    if (!check_row_type(in_type, "input_type") || !check_row_type(out_type, "output_type"))
        goto done;
    if (offset < 0 || offset > buf.len || count < 0 || count > (buf.len - offset) / TX_MIN) {
        PyErr_Format(PyExc_ValueError, "%zd transactions cannot fit in the data", count);
        goto done;
    }
    if ((txs = PyTuple_New(count)) == NULL)
        goto done;
    for (i = 0; i < count; i++) {
        PyObject *tx = parse_transaction(buf.buf, buf.len, &offset, tx_type, in_type, out_type);
        if (tx == NULL)
            goto done;
        PyTuple_SET_ITEM(txs, i, tx);
    }
    result = Py_BuildValue("(On)", txs, offset);
done:
    Py_XDECREF(txs);
    PyBuffer_Release(&buf);
    return result;
}

PyDoc_STRVAR(parse_transactions_doc,
"parse_transactions(data, offset, count, tx_type, input_type, output_type)\n"
"    -> (transactions, end)\n\n"
"Parse count transactions from data at offset: rows are input_type and\n"
"output_type tuples, and each transaction is a tx_type made without its\n"
"__init__, its inputs, outputs, fee and txid (sha256d of its own bytes) set\n"
"in its __dict__. end is the offset past the last one. ValueError when a\n"
"count runs past the data. The rows and the inputs and outputs tuples are\n"
"untracked from the cyclic GC: they hold only bytes and ints.");

/* ------------------------------------------------------------------------
 * The UTXO table: every unspent output is one fixed-size entry of a dense
 * array, so no Python object exists per output. An entry is the outpoint as
 * an input row spells it (prev_txid, vout big-endian) and the output as an
 * output row spells it (field, kind, amount big-endian), so connect_records
 * copies both straight from the record, and get() builds the row only on
 * read. A spent entry's place goes to the last entry, so the array stays
 * dense and grows in place (realloc), touching only the memory it fills.
 * connect_records reserves it once for every output of the records it is
 * given, which bounds every count it reaches, so a load sizes it once from
 * the file and never regrows it.
 *
 * An open-addressing index of (hash, place) slots finds an entry: probing is
 * linear, a removal shifts the rest of its probe run back (no tombstones),
 * and the index is rebuilt larger, from the hashes its slots keep, when a
 * reservation would pass three quarters of it. The outpoint is hashed with
 * SipHash under a key that each table draws from os.urandom, as Bitcoin
 * Core's SaltedOutpointHasher does, so no chain file can be crafted to make
 * long probe runs. */

#define OUTPOINT 36 /* prev_txid 32B, vout u32 */

typedef struct {
    u8 outpoint[OUTPOINT]; /* prev_txid and vout, as an input row has them */
    u8 output[OUTPUT_ROW]; /* field, kind and amount, as an output row has them */
} utxo_entry;

typedef struct {
    u32 hash; /* the outpoint's salted hash, never 0; 0 marks a free slot */
    u32 at;   /* the entry's place */
} utxo_slot;

typedef struct {
    PyObject_HEAD
    PyTypeObject *row;    /* the row type get builds */
    utxo_entry *entries;  /* count entries, room for room */
    utxo_slot *slots;     /* cap slots */
    size_t count, room;   /* count <= room */
    size_t cap;           /* 0 or a power of two, and count <= cap * 3 / 4 */
    u64 k0, k1;           /* the SipHash key */
} utxo_table;

static PyTypeObject UtxoTableType;
static PyObject *URANDOM; /* os.urandom, which keys each table */
static const u8 NULL32[32]; /* the txid of the null outpoint a coinbase spends */

static inline u64 rotl64(u64 x, int n) { return (x << n) | (x >> (64 - n)); }

#define SIPROUND                                                                           \
    do {                                                                                   \
        v0 += v1, v1 = rotl64(v1, 13), v1 ^= v0, v0 = rotl64(v0, 32);                     \
        v2 += v3, v3 = rotl64(v3, 16), v3 ^= v2;                                           \
        v0 += v3, v3 = rotl64(v3, 21), v3 ^= v0;                                           \
        v2 += v1, v1 = rotl64(v1, 17), v1 ^= v2, v2 = rotl64(v2, 32);                      \
    } while (0)

/* SipHash-1-3 (the keyed hash of CPython's str and of Rust's HashMap) of
 * the 36 outpoint bytes under the table's key, folded to 32 bits, 0 moved
 * to 1 */
static u32 outpoint_hash(const utxo_table *t, const u8 *op)
{
    u64 v0 = 0x736f6d6570736575ULL ^ t->k0, v1 = 0x646f72616e646f6dULL ^ t->k1;
    u64 v2 = 0x6c7967656e657261ULL ^ t->k0, v3 = 0x7465646279746573ULL ^ t->k1, m;
    u32 tail, h;
    int i;
    for (i = 0; i < 5; i++) {
        if (i < 4)
            memcpy(&m, op + 8 * i, 8);
        else {
            memcpy(&tail, op + 32, 4);
            m = (u64)OUTPOINT << 56 | tail;
        }
        v3 ^= m;
        SIPROUND;
        v0 ^= m;
    }
    v2 ^= 0xff;
    for (i = 0; i < 3; i++)
        SIPROUND;
    h = (u32)(v0 ^ v1 ^ v2 ^ v3);
    return h ? h : 1;
}

/* The slot of op, whose hash is h; -1 when op is absent */
static Py_ssize_t table_find(const utxo_table *t, const u8 *op, u32 h)
{
    size_t mask = t->cap - 1, i;
    if (t->cap == 0)
        return -1;
    for (i = h & mask; t->slots[i].hash != 0; i = (i + 1) & mask)
        if (t->slots[i].hash == h &&
            memcmp(t->entries[t->slots[i].at].outpoint, op, OUTPOINT) == 0)
            return (Py_ssize_t)i;
    return -1;
}

/* Make room for `more` entries beyond the count: the array grows to at
 * least double (16 entries at first) or to count + more if that is more, and
 * the index to the least power of two that keeps count + more within three
 * quarters of it, rebuilt once. So a load that reserves for every output of
 * its file at the start grows neither again. MemoryError past 2^32 slots,
 * the most a 32-bit hash can index. */
static int table_reserve(utxo_table *t, size_t more)
{
    size_t need = t->count + more, room, cap, mask, i, j;
    utxo_entry *entries;
    utxo_slot *slots = NULL;
    if (need > t->room) {
        room = t->room ? 2 * t->room : 16;
        if (room < need)
            room = need;
        if (room > PY_SSIZE_T_MAX / sizeof(utxo_entry) ||
            (entries = PyMem_Realloc(t->entries, room * sizeof(utxo_entry))) == NULL) {
            PyErr_NoMemory();
            return 0;
        }
        t->entries = entries;
        t->room = room;
    }
    if (4 * need <= 3 * t->cap)
        return 1;
    for (cap = t->cap ? 2 * t->cap : 16; 4 * need > 3 * cap && cap <= (size_t)1 << 32; cap *= 2)
        ;
    if (cap <= (size_t)1 << 32)
        slots = PyMem_Calloc(cap, sizeof(utxo_slot));
    if (slots == NULL) {
        PyErr_NoMemory();
        return 0;
    }
    for (mask = cap - 1, i = 0; i < t->cap; i++) {
        if (t->slots[i].hash == 0)
            continue;
        for (j = t->slots[i].hash & mask; slots[j].hash != 0; j = (j + 1) & mask)
            ;
        slots[j] = t->slots[i];
    }
    PyMem_Free(t->slots);
    t->slots = slots;
    t->cap = cap;
    return 1;
}

/* Put the output row at `output` under op, replacing the output already
 * there as a dict assignment would. */
static int table_put(utxo_table *t, const u8 *op, const u8 *output)
{
    u32 h = outpoint_hash(t, op);
    utxo_slot *s;
    size_t mask, i;
    if (!table_reserve(t, 1))
        return 0;
    mask = t->cap - 1;
    for (i = h & mask; (s = &t->slots[i])->hash != 0; i = (i + 1) & mask)
        if (s->hash == h && memcmp(t->entries[s->at].outpoint, op, OUTPOINT) == 0) {
            memcpy(t->entries[s->at].output, output, OUTPUT_ROW);
            return 1;
        }
    s->hash = h;
    s->at = (u32)t->count;
    memcpy(t->entries[t->count].outpoint, op, OUTPOINT);
    memcpy(t->entries[t->count].output, output, OUTPUT_ROW);
    t->count++;
    return 1;
}

/* Remove the entry of slot `hole`. Each later slot of its probe run whose
 * home is not cyclically in (hole, its place] moves back into the hole,
 * which moves on to the slot it left; then the last entry takes the freed
 * place, and its slot follows it. */
static void table_remove(utxo_table *t, size_t hole)
{
    size_t mask = t->cap - 1, at = t->slots[hole].at, last = t->count - 1, i;
    u32 h;
    for (i = (hole + 1) & mask; t->slots[i].hash != 0; i = (i + 1) & mask)
        if (((i - t->slots[i].hash) & mask) >= ((i - hole) & mask)) {
            t->slots[hole] = t->slots[i];
            hole = i;
        }
    t->slots[hole].hash = 0;
    if (at != last) {
        h = outpoint_hash(t, t->entries[last].outpoint);
        for (i = h & mask; t->slots[i].hash != h || t->slots[i].at != last; i = (i + 1) & mask)
            ;
        t->slots[i].at = (u32)at;
        t->entries[at] = t->entries[last];
    }
    t->count--;
}

/* Raise ValueError(*why), why a tuple (a new reference, NULL when building
 * it failed). Returns 0. */
static int refuse(PyObject *why)
{
    if (why != NULL) {
        PyErr_SetObject(PyExc_ValueError, why);
        Py_DECREF(why);
    }
    return 0;
}

/* Raise ValueError(reason, position, index): transaction `position` of the
 * block broke a rule, at input `index` (-1 for the balance). Returns 0. */
static int rule_broken(const char *reason, Py_ssize_t position, Py_ssize_t index)
{
    return refuse(Py_BuildValue("(snn)", reason, position, index));
}

/* Spend input `index` of transaction `position`, the input row at `row`:
 * remove the output its outpoint names and add that output's amount to
 * *total_in. The output must pay the input's address; it is removed before
 * that check, so a refusal there leaves it spent. */
static int spend(utxo_table *t, const u8 *row, Py_ssize_t position, Py_ssize_t index,
                 u128 *total_in)
{
    Py_ssize_t slot = table_find(t, row, outpoint_hash(t, row));
    u8 output[OUTPUT_ROW];
    if (slot < 0)
        return rule_broken("spent", position, index);
    memcpy(output, t->entries[t->slots[slot].at].output, OUTPUT_ROW);
    table_remove(t, (size_t)slot);
    if (memcmp(output, row + OUTPOINT, 20) != 0)
        return rule_broken("address", position, index);
    *total_in += load_be64(output + 21);
    return 1;
}

/* Transaction `position` must pay out exactly what its inputs bring in:
 * its outputs plus its fee, which then goes into *fees. */
static int balance(u128 total_in, u128 total_out, u64 fee, Py_ssize_t position, u128 *fees)
{
    if (total_in != total_out + fee)
        return rule_broken("balance", position, -1);
    *fees += fee;
    return 1;
}

/* v as a Python int; sums pass 2^64 only on a chain that holds that much */
static PyObject *u128_to_long(u128 v)
{
    PyObject *high, *low, *shift, *shifted = NULL, *result = NULL;
    if (v >> 64 == 0)
        return PyLong_FromUnsignedLongLong((u64)v);
    high = PyLong_FromUnsignedLongLong((u64)(v >> 64));
    low = PyLong_FromUnsignedLongLong((u64)v);
    shift = PyLong_FromLong(64);
    if (high != NULL && low != NULL && shift != NULL &&
        (shifted = PyNumber_Lshift(high, shift)) != NULL)
        result = PyNumber_Or(shifted, low);
    Py_XDECREF(high);
    Py_XDECREF(low);
    Py_XDECREF(shift);
    Py_XDECREF(shifted);
    return result;
}

/* A block record that frames: its bytes data[at : at + size], and the index
 * of its message (its bytes before the hash) among the file's messages,
 * after which come those of its count transactions. */
typedef struct {
    Py_ssize_t at, size, msg, count;
} framed_record;

/* What the one framing walk over a chain file finds: each record that
 * frames, up to the first that does not, and every message to hash. */
typedef struct {
    framed_record *recs;
    hash_msg *msgs;
    Py_ssize_t n_recs, recs_room, n_msgs, msgs_room;
    size_t outputs;    /* the outputs of those records */
    PyObject *refusal; /* the args of the first record that does not frame, or NULL */
} chain_frames;

/* Room in *items, of *room items of size bytes, for need; MemoryError else. */
static int reserve(void **items, Py_ssize_t *room, Py_ssize_t need, size_t size)
{
    Py_ssize_t more = *room ? 2 * *room : 64;
    void *grown;
    if (need <= *room)
        return 1;
    if (more < need)
        more = need;
    if ((size_t)more > PY_SSIZE_T_MAX / size || (grown = PyMem_Realloc(*items, more * size)) == NULL) {
        PyErr_NoMemory();
        return 0;
    }
    *items = grown;
    *room = more;
    return 1;
}

/* Walk the length-prefixed records of data[0:size] once: each one's
 * length, header, every count within the bytes left (tx_frame), and its
 * hash last. A record that frames adds its message and its transactions'
 * to f->msgs, and its outputs to f->outputs; the walk stops at the first
 * that does not, whose refusal goes in f->refusal. Returns 0 when an
 * allocation failed. */
static int frame_chain(const u8 *data, Py_ssize_t size, chain_frames *f)
{
    Py_ssize_t at = 0, length, pos, from, i, n_in, n_out;
    const u8 *record;
    const char *bad = NULL;
    u64 count;
    size_t outputs;
    while (at < size) {
        if (size - at < 4) {
            f->refusal = Py_BuildValue("(s)", "length");
            break;
        }
        length = load_be32(data + at);
        record = data + at + 4;
        if (length > size - at - 4) {
            f->refusal = Py_BuildValue("(s)", "extent");
            break;
        }
        if (length < BLOCK_HEAD) {
            f->refusal = Py_BuildValue("(ss)", "truncated", "data ends inside the block header");
            break;
        }
        count = load_be32(record + BLOCK_HEAD - 4);
        if (count > (u64)((length - BLOCK_HEAD) / TX_MIN)) {
            f->refusal = Py_BuildValue("(sN)", "truncated", PyUnicode_FromFormat(
                "%llu transactions cannot fit in the data", (unsigned long long)count));
            break;
        }
        if (!reserve((void **)&f->msgs, &f->msgs_room, f->n_msgs + 1 + (Py_ssize_t)count,
                     sizeof(hash_msg)) ||
            !reserve((void **)&f->recs, &f->recs_room, f->n_recs + 1, sizeof(framed_record)))
            return 0;
        for (pos = BLOCK_HEAD, outputs = 0, i = 0; i < (Py_ssize_t)count; i++) {
            from = pos;
            if ((bad = tx_frame(record, length, &pos, &n_in, &n_out)) != NULL)
                break;
            f->msgs[f->n_msgs + 1 + i] = (hash_msg){record + from, (size_t)(pos - from)};
            outputs += (size_t)n_out;
        }
        if (bad != NULL) {
            f->refusal = Py_BuildValue("(ss)", "truncated", bad);
            break;
        }
        if (pos + 32 != length) {
            f->refusal = Py_BuildValue("(s)", "trailing");
            break;
        }
        f->msgs[f->n_msgs] = (hash_msg){record, (size_t)pos};
        f->recs[f->n_recs++] = (framed_record){at + 4, length, f->n_msgs, (Py_ssize_t)count};
        f->n_msgs += 1 + (Py_ssize_t)count;
        f->outputs += outputs;
        at += 4 + length;
    }
    return f->refusal != NULL || !PyErr_Occurred();
}

/* A per-block row of connect_records: the timestamp (u64), the block hash,
 * the coinbase txid and the record's extent in the file, start and end
 * (u64 each), integers big-endian. New fields go at the end. */
#define BLOCK_ROW 88

static void store_be64(u8 *p, u64 v)
{
    int i;
    for (i = 0; i < 8; i++)
        p[i] = (u8)(v >> (56 - 8 * i));
}

/* Apply framed record r of data, at height after prev, whose messages'
 * sha256d are digests[r->msg ...], to the table: its stored hash, height,
 * place in the chain and coinbase, then each transaction's spends, balance
 * and outputs in order, then the coinbase cap. Adds what the coinbase mints
 * and the fees to *minted and *fees, and fills its row. Returns 0 with a
 * refusal's ValueError set. */
static int apply_record(utxo_table *table, const u8 *data, const framed_record *r,
                        const hash_msg *msgs, const u8 (*digests)[32], Py_ssize_t height,
                        const u8 *prev, u64 subsidy, u128 *minted, u128 *fees, u8 *row)
{
    const u8 *record = data + r->at, *tx, *io;
    u64 at_height = load_be64(record);
    u128 block_fees = 0, coinbase_pays = 0, total_in, total_out;
    Py_ssize_t position, n_in, n_out, i;
    u8 op[OUTPOINT];
    if (memcmp(digests[r->msg], record + r->size - 32, 32) != 0)
        return refuse(Py_BuildValue("(sK)", "hash", (unsigned long long)at_height));
    if (at_height != (u64)height)
        return refuse(Py_BuildValue("(sK)", "height", (unsigned long long)at_height));
    if (memcmp(record + 8, prev, 32) != 0)
        return refuse(Py_BuildValue("(sK)", "chain", (unsigned long long)at_height));
    /* transaction 0 has one input, which spends the null outpoint */
    if (r->count == 0 || load_be32(record + BLOCK_HEAD) != 1 ||
        memcmp(record + BLOCK_HEAD + 4, NULL32, 32) != 0)
        return refuse(Py_BuildValue("(sK)", "coinbase", (unsigned long long)at_height));
    for (position = 0; position < r->count; position++) {
        tx = msgs[r->msg + 1 + position].at;
        n_in = load_be32(tx);
        io = tx + 4;
        total_in = total_out = 0;
        for (i = 0; position && i < n_in; i++, io += INPUT_ROW)
            if (!spend(table, io, position, i, &total_in))
                return 0;
        io = tx + 8 + n_in * INPUT_ROW; /* past the inputs and the output count */
        n_out = load_be32(io - 4);
        for (i = 0; i < n_out; i++)
            total_out += load_be64(io + i * OUTPUT_ROW + 21);
        if (!position)
            coinbase_pays = total_out;
        else if (!balance(total_in, total_out, load_be64(io + n_out * OUTPUT_ROW), position,
                          &block_fees))
            return 0;
        memcpy(op, digests[r->msg + 1 + position], 32); /* the txid of each output's outpoint */
        for (i = 0; i < n_out; i++, io += OUTPUT_ROW) {
            op[32] = (u8)(i >> 24), op[33] = (u8)(i >> 16), op[34] = (u8)(i >> 8), op[35] = (u8)i;
            if (!table_put(table, op, io))
                return 0;
        }
    }
    if (height > 0 && coinbase_pays > subsidy + block_fees)
        return refuse(Py_BuildValue("(snNN)", "cap", height, u128_to_long(coinbase_pays),
                                    u128_to_long(subsidy + block_fees)));
    *minted += coinbase_pays;
    *fees += block_fees;
    memcpy(row, record + 40, 8);
    memcpy(row + 8, record + r->size - 32, 32);
    memcpy(row + 40, digests[r->msg + 1], 32);
    store_be64(row + 72, (u64)r->at);
    store_be64(row + 80, (u64)(r->at + r->size));
    return 1;
}

static PyObject *py_connect_records(PyObject *self, PyObject *args)
{
    Py_buffer buf, prev;
    utxo_table *table;
    unsigned long long subsidy;
    Py_ssize_t height, r = 0;
    chain_frames f = {0};
    u8 (*digests)[32] = NULL, *rows = NULL;
    size_t *order = NULL;
    u128 minted = 0, fees = 0;
    const u8 *data, *tip;
    PyObject *type, *value, *trace, *mint = NULL, *fee = NULL, *issued = NULL, *result = NULL;
    if (!PyArg_ParseTuple(args, "O!y*ny*K:connect_records", &UtxoTableType, &table, &buf,
                          &height, &prev, &subsidy))
        return NULL;
    data = buf.buf;
    tip = prev.buf;
    if (prev.len != 32) {
        PyErr_SetString(PyExc_ValueError, "prev_hash must be 32 bytes");
        goto done;
    }
    if (!frame_chain(data, buf.len, &f) || !table_reserve(table, f.outputs))
        goto done;
    /* one more item each, so no size is 0 */
    digests = PyMem_Malloc((size_t)(f.n_msgs + 1) * sizeof(*digests));
    order = PyMem_Malloc((size_t)(f.n_msgs + 1) * sizeof(*order));
    rows = PyMem_Malloc((size_t)(f.n_recs + 1) * BLOCK_ROW);
    if (digests == NULL || order == NULL || rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    sha256d_batch(f.msgs, (size_t)f.n_msgs, digests, order);
    for (; r < f.n_recs; r++) {
        if (!apply_record(table, data, &f.recs[r], f.msgs, (const u8 (*)[32])digests, height + r,
                          tip, subsidy, &minted, &fees, rows + r * BLOCK_ROW)) {
            /* a refusal ends the walk; it is earlier than any framing fault */
            if (!PyErr_ExceptionMatches(PyExc_ValueError))
                goto done;
            PyErr_Fetch(&type, &value, &trace);
            PyErr_NormalizeException(&type, &value, &trace);
            Py_XSETREF(f.refusal, PyObject_GetAttrString(value, "args"));
            Py_XDECREF(type);
            Py_XDECREF(value);
            Py_XDECREF(trace);
            break;
        }
        tip = data + f.recs[r].at + f.recs[r].size - 32; /* the hash of the record just applied */
    }
    if (PyErr_Occurred()) /* building or reading a refusal can fail */
        goto done;
    if ((mint = u128_to_long(minted)) != NULL && (fee = u128_to_long(fees)) != NULL &&
        (issued = PyNumber_Subtract(mint, fee)) != NULL)
        result = Py_BuildValue("(y#OO)", (const char *)rows, r * BLOCK_ROW, issued,
                               f.refusal ? f.refusal : Py_None);
done:
    Py_XDECREF(mint);
    Py_XDECREF(fee);
    Py_XDECREF(issued);
    Py_XDECREF(f.refusal);
    PyMem_Free(f.recs);
    PyMem_Free(f.msgs);
    PyMem_Free(digests);
    PyMem_Free(order);
    PyMem_Free(rows);
    PyBuffer_Release(&buf);
    PyBuffer_Release(&prev);
    return result;
}

PyDoc_STRVAR(connect_records_doc,
"connect_records(table, data, height, prev_hash, subsidy) -> (rows, issued, refusal)\n\n"
"Apply each block record of data, a file of records each framed by its\n"
"4-byte big-endian length, in file order to a UtxoTable straight from its\n"
"bytes, the first at height after prev_hash. One walk frames every record\n"
"(a header, every count within the bytes left, the 32-byte hash last) up\n"
"to the first that does not; the table is then reserved once for their\n"
"outputs, and every record and transaction is hashed (sha256d) in one\n"
"batch, in 16 AVX-512 lanes when the CPU has them and the batch fills them.\n\n"
"Then, record by record: its stored hash must be sha256d of the bytes\n"
"before it, its header must give its height and the previous record's\n"
"hash, and transaction 0 must be a coinbase: one input, which spends the\n"
"null outpoint. Unless it is the coinbase, each transaction's inputs remove\n"
"the outputs their (prev_txid, vout) outpoints name, which must be present\n"
"and pay the input's address, and must sum to its outputs plus its fee. Its\n"
"outputs then go in under (txid, vout), in order, so a later transaction\n"
"may spend them. Above height 0, the coinbase may pay at most subsidy plus\n"
"the block's fees.\n\n"
"rows holds one 88-byte row per record applied: timestamp u64, block hash,\n"
"coinbase txid, and start and end u64 (data[start:end] is its record),\n"
"integers big-endian. issued is what the coinbases minted less the fees,\n"
"summed. The walk stops at the first record refused; refusal is then the\n"
"reason, else None: ('length',) for a length prefix cut short, ('extent',)\n"
"for a record that runs past the data, ('truncated', text), ('trailing',),\n"
"('hash' | 'height' | 'chain' | 'coinbase', the record's height),\n"
"('spent' | 'address' | 'balance', position, index), index -1 for the\n"
"balance, or ('cap', height, minted, subsidy plus fees). Of several faults\n"
"the first in file order is the one returned. The table keeps what was\n"
"applied before a refusal, the refused block's transactions before the\n"
"cap; an output whose address did not match is spent all the same.");

/* The 36 outpoint bytes of key, a (txid, vout) tuple, in op; 0 when key is
 * no outpoint a table can hold. */
static int outpoint_of(PyObject *key, u8 *op)
{
    PyObject *txid, *vout;
    unsigned long v;
    if (!PyTuple_Check(key) || PyTuple_GET_SIZE(key) != 2)
        return 0;
    txid = PyTuple_GET_ITEM(key, 0);
    vout = PyTuple_GET_ITEM(key, 1);
    if (!PyBytes_Check(txid) || PyBytes_GET_SIZE(txid) != 32 || !PyLong_Check(vout))
        return 0;
    v = PyLong_AsUnsignedLong(vout);
    if (PyErr_Occurred()) { /* negative, or past an unsigned long */
        PyErr_Clear();
        return 0;
    }
    if (v > 0xFFFFFFFFUL)
        return 0;
    memcpy(op, PyBytes_AS_STRING(txid), 32);
    op[32] = (u8)(v >> 24), op[33] = (u8)(v >> 16), op[34] = (u8)(v >> 8), op[35] = (u8)v;
    return 1;
}

static Py_ssize_t table_slot_of(utxo_table *t, PyObject *key)
{
    u8 op[OUTPOINT];
    return outpoint_of(key, op) ? table_find(t, op, outpoint_hash(t, op)) : -1;
}

static PyObject *table_get(utxo_table *t, PyObject *key)
{
    Py_ssize_t slot = table_slot_of(t, key);
    if (slot < 0)
        Py_RETURN_NONE;
    return output_row(t->row, t->entries[t->slots[slot].at].output);
}

static int table_contains(utxo_table *t, PyObject *key)
{
    return table_slot_of(t, key) >= 0;
}

static PyObject *table_total(utxo_table *t, PyObject *unused)
{
    u128 total = 0;
    size_t i;
    for (i = 0; i < t->count; i++)
        total += load_be64(t->entries[i].output + 21);
    return u128_to_long(total);
}

static PyObject *table_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"", NULL};
    PyTypeObject *row;
    PyObject *key;
    utxo_table *t = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!:UtxoTable", kwlist, &PyType_Type, &row) ||
        !check_row_type(row, "row_type") ||
        (key = PyObject_CallFunction(URANDOM, "i", 16)) == NULL)
        return NULL;
    if (PyBytes_Check(key) && PyBytes_GET_SIZE(key) == 16 &&
        (t = (utxo_table *)type->tp_alloc(type, 0)) != NULL) {
        memcpy(&t->k0, PyBytes_AS_STRING(key), 8);
        memcpy(&t->k1, PyBytes_AS_STRING(key) + 8, 8);
        t->row = (PyTypeObject *)Py_NewRef(row);
    }
    else if (!PyErr_Occurred())
        PyErr_SetString(PyExc_RuntimeError, "os.urandom(16) gave no 16 bytes");
    Py_DECREF(key);
    return (PyObject *)t;
}

static void table_dealloc(utxo_table *t)
{
    PyMem_Free(t->entries);
    PyMem_Free(t->slots);
    Py_XDECREF(t->row);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

static PyMethodDef table_methods[] = {
    {"get", (PyCFunction)table_get, METH_O,
     "get(outpoint) -> row or None\n\nThe output (txid, vout) names, as a new row_type row."},
    {"total", (PyCFunction)table_total, METH_NOARGS,
     "total() -> int\n\nThe sum of every unspent amount."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods table_as_sequence = {
    .sq_contains = (objobjproc)table_contains,
};

PyDoc_STRVAR(utxo_table_doc,
"UtxoTable(row_type)\n\n"
"The unspent outputs, keyed by (txid, vout) outpoints and filled only by\n"
"connect_records. get(outpoint) builds a row_type row (field, amount, kind)\n"
"on read, `outpoint in table` tests membership, and total() sums every\n"
"amount. A table keeps each output as a fixed-size entry of one array, not\n"
"as Python objects, so freeing it frees two allocations: the entries and\n"
"their index. It has no order and is not iterable.");

static PyTypeObject UtxoTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "chainsteg._kernel.UtxoTable",
    .tp_basicsize = sizeof(utxo_table),
    .tp_dealloc = (destructor)table_dealloc,
    .tp_as_sequence = &table_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = utxo_table_doc,
    .tp_methods = table_methods,
    .tp_new = table_new,
};

static double now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e9 + ts.tv_nsec;
}

static volatile u64 sink; /* keeps the timed loops from being optimised away */

/* ns per lane of derive_batch on comb, over batches of SCAN_LANES counters */
static double derive_lane_ns(comb_fn *comb, scan_work *work, long batches)
{
    static const u8 k[32];
    double t0 = now_ns();
    long i;
    for (i = 0; i < batches; i++)
        derive_batch(k, 3, 1 + (u64)i * SCAN_LANES, SCAN_LANES, TBL[1][0].x, TBL[1][0].y,
                     comb, work->lanes, work->digests, work->ok);
    return (now_ns() - t0) / ((double)batches * SCAN_LANES);
}

#if defined(__x86_64__)
/* ns per block per lane of x16_compress, over 16 blocks in a dependent chain */
X16 static double x16_block_ns(long iters)
{
    u8 blocks[X16_LANES][64];
    u32 state[8][X16_LANES] __attribute__((aligned(64)));
    const u8 *at[X16_LANES];
    double t0;
    long i;
    int l;
    memset(blocks, 0x42, sizeof(blocks));
    memset(state, 0, sizeof(state));
    for (l = 0; l < X16_LANES; l++)
        at[l] = blocks[l];
    t0 = now_ns();
    for (i = 0; i < iters; i++) {
        x16_compress(state, at);
        blocks[i % X16_LANES][0] = (u8)state[0][i % X16_LANES];
    }
    t0 = (now_ns() - t0) / ((double)iters * X16_LANES);
    sink = state[7][0];
    _mm256_zeroupper();
    return t0;
}

/* ns per fe8_mul (8 lanes) in a dependent chain */
IFMA static double fe8_mul_ns(long iters)
{
    u64 limbs[5][8] __attribute__((aligned(64)));
    __m512i at = _mm512_set_epi64(56, 48, 40, 32, 24, 16, 8, 0); /* TBL[0][0..7].x */
    fe8 a, b;
    double t0;
    long i;
    fe8_gather(&a, 0xFF, at);
    fe8_gather(&b, 0xFF, _mm512_add_epi64(at, _mm512_set1_epi64(4))); /* their y */
    t0 = now_ns();
    for (i = 0; i < iters; i++)
        fe8_mul(&a, &a, &b);
    t0 = (now_ns() - t0) / iters;
    fe8_store(limbs, &a, 0xFF);
    sink = limbs[0][0];
    return t0;
}
#endif

static PyObject *py_microbench(PyObject *self, PyObject *args)
{
    long iters, i;
    u64 a[4] = {0x123456789ABCDEF0ULL, 0xFEDCBA9876543210ULL,
                0x0F1E2D3C4B5A6978ULL, 0x1122334455667788ULL};
    u64 b[4] = {0x123456789ABCAAA5ULL, 0xFEDCBA9876543210ULL,
                0x0F1E2D3C4B5A6978ULL, 0x1122334455667788ULL};
    u8 msg[41], h[32];
    jpt pt;
    double t0, fe_mul_ns, jpt_add_ns, fe_inv_ns, sha256_ns, ripemd_ns, portable_ns,
        ifma_ns = 0, fe_mul8_ns = 0, x16_ns = 0;
    long batches;
    scan_work *work;
    if (!PyArg_ParseTuple(args, "l:_microbench", &iters))
        return NULL;
    if (iters < 100)
        return PyErr_Format(PyExc_ValueError, "iters must be at least 100");
    batches = iters / 20000 > 0 ? iters / 20000 : 1;
    if ((work = PyMem_RawMalloc(sizeof(*work))) == NULL)
        return PyErr_NoMemory();
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
        sha256(msg, 41, h);
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
    portable_ns = derive_lane_ns(comb_affine, work, batches);
#if defined(__x86_64__)
    if (comb_ifma != NULL) {
        ifma_ns = derive_lane_ns(comb_ifma, work, batches);
        fe_mul8_ns = fe8_mul_ns(iters);
    }
    if (x16_ok)
        x16_ns = x16_block_ns(iters / 10);
#endif
    Py_END_ALLOW_THREADS
    PyMem_RawFree(work);
    return Py_BuildValue("{sdsdsdsdsdsdsdsdsd}", "fe_mul_ns", fe_mul_ns,
                         "jpt_add_ns", jpt_add_ns, "fe_inv_ns", fe_inv_ns,
                         "sha256_ns", sha256_ns, "ripemd_ns", ripemd_ns,
                         "derive_portable_ns", portable_ns, "derive_ifma_ns", ifma_ns,
                         "fe_mul8_ns", fe_mul8_ns, "sha256_x16_ns", x16_ns);
}

PyDoc_STRVAR(microbench_doc,
"_microbench(iters) -> dict\n\n"
"Per-operation timings in ns (fe_mul, jpt_add, fe_inv, sha256, ripemd) for\n"
"the benchmark's layer rows; per derivation over 256-lane batches on each\n"
"comb path (derive_portable_ns, derive_ifma_ns); one 8-lane multiply of\n"
"the IFMA path (fe_mul8_ns); and one 16-lane SHA-256 compression per block\n"
"and lane (sha256_x16_ns). The IFMA rows are 0 on a CPU without it, and\n"
"sha256_x16_ns on one without AVX-512 F. Not part of the API.");

static PyObject *py_derived(PyObject *self, PyObject *args)
{
    return PyLong_FromUnsignedLongLong(derived_total);
}

PyDoc_STRVAR(derived_doc,
"_derived() -> int\n\n"
"Counters grind_scan has derived in this process, those kept in the grind\n"
"stream past a scan's last hit included; not part of the API.");

static PyObject *py_comb_path(PyObject *self, PyObject *args)
{
    const char *name = NULL, *was = comb_wide == comb_affine ? "portable" : "ifma";
    if (!PyArg_ParseTuple(args, "|s:_comb_path", &name))
        return NULL;
    if (name != NULL && strcmp(name, "portable") == 0) {
        comb_wide = comb_affine;
    } else if (name != NULL && strcmp(name, "ifma") == 0) {
        if (comb_ifma == NULL)
            return PyErr_Format(PyExc_ValueError, "this CPU has no AVX-512 IFMA");
        comb_wide = comb_ifma;
    } else if (name != NULL) {
        return PyErr_Format(PyExc_ValueError, "unknown comb path %s", name);
    }
    return PyUnicode_FromString(was);
}

PyDoc_STRVAR(comb_path_doc,
"_comb_path([name]) -> str\n\n"
"The comb that derives batches of 64 lanes or more: 'ifma' (8 SIMD lanes,\n"
"chosen at import where the CPU has AVX-512 IFMA) or 'portable'. With a\n"
"name, switches to that comb for later scans and returns the previous one;\n"
"not part of the API.");

static PyObject *py_hash_path(PyObject *self, PyObject *args)
{
    const char *name = NULL, *was = hash_x16 ? "x16" : "portable";
#if defined(__x86_64__) || defined(__i386__)
    if (!hash_x16 && sha256_compress == sha256_compress_shani)
        was = "shani";
#endif
    if (!PyArg_ParseTuple(args, "|s:_hash_path", &name))
        return NULL;
    if (name == NULL)
        return PyUnicode_FromString(was);
    if (strcmp(name, "portable") == 0) {
        hash_x16 = 0;
        sha256_compress = sha256_compress_portable;
    }
#if defined(__x86_64__) || defined(__i386__)
    else if (strcmp(name, "shani") == 0 && sha_ni_ok) {
        hash_x16 = 0;
        sha256_compress = sha256_compress_shani;
    }
#endif
#if defined(__x86_64__)
    else if (strcmp(name, "x16") == 0 && x16_ok) {
        hash_x16 = 1;
        sha256_compress = sha_ni_ok ? sha256_compress_shani : sha256_compress_portable;
    }
#endif
    else if (strcmp(name, "x16") == 0 || strcmp(name, "shani") == 0)
        return PyErr_Format(PyExc_ValueError, "this CPU has no %s path", name);
    else
        return PyErr_Format(PyExc_ValueError, "unknown hash path %s", name);
    return PyUnicode_FromString(was);
}

PyDoc_STRVAR(hash_path_doc,
"_hash_path([name]) -> str\n\n"
"The SHA-256 path: 'x16' (connect_records hashes a batch that fills them in\n"
"16 AVX-512 lanes, and all else on SHA-NI where the CPU has it), 'shani'\n"
"(every hash on SHA-NI) or 'portable' (every hash in portable C). Import\n"
"chooses the fastest the CPU has. With a name, switches to that path and\n"
"returns the previous one; not part of the API.");

static PyObject *py_upper_state(PyObject *self, PyObject *args)
{
    u64 bits = 0;
#if defined(__x86_64__)
    unsigned a, b, c, d;
    /* XGETBV with ECX = 1 reads XINUSE: CPUID.(EAX = 0DH, ECX = 1):EAX bit 2 */
    if (__get_cpuid(1, &a, &b, &c, &d) && (c & bit_OSXSAVE) && __get_cpuid_max(0, NULL) >= 0xD) {
        __cpuid_count(0xD, 1, a, b, c, d);
        if (a & (1u << 2)) {
            u32 lo, hi;
            __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
            bits = ((u64)hi << 32 | lo) & 0x44;
        }
    }
#endif
    return PyLong_FromUnsignedLongLong(bits);
}

PyDoc_STRVAR(upper_state_doc,
"_upper_state() -> int\n\n"
"Bits 2 (upper halves of ymm0-15) and 6 (upper halves of zmm0-15) of\n"
"XGETBV(1), the vector state in use; 0 where the CPU lacks XGETBV with\n"
"ECX = 1. Both read 0 once AVX code has cleaned up, as legacy-SSE code such\n"
"as SHA-NI needs to run at full speed. Not part of the API.");

static PyMethodDef kernel_methods[] = {
    {"derive_digest", py_derive_digest, METH_VARARGS, derive_digest_doc},
    {"mult_g", py_mult_g, METH_O, mult_g_doc},
    {"decompress", py_decompress, METH_O, decompress_doc},
    {"grind_scan", (PyCFunction)(void (*)(void))py_grind_scan, METH_VARARGS | METH_KEYWORDS,
     grind_scan_doc},
    {"parse_transactions", py_parse_transactions, METH_VARARGS, parse_transactions_doc},
    {"connect_records", py_connect_records, METH_VARARGS, connect_records_doc},
    {"_microbench", py_microbench, METH_VARARGS, microbench_doc},
    {"_derived", py_derived, METH_NOARGS, derived_doc},
    {"_comb_path", py_comb_path, METH_VARARGS, comb_path_doc},
    {"_hash_path", py_hash_path, METH_VARARGS, hash_path_doc},
    {"_upper_state", py_upper_state, METH_NOARGS, upper_state_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "chainsteg._kernel",
    "Compiled secp256k1 derivation, grinding and transaction-parsing kernel.", -1,
    kernel_methods,
};

/* A compression, the inversion or a comb that fails its known-answer test
 * raises RuntimeError, not ImportError, so the package does not quietly fall
 * back to pure Python. */
PyMODINIT_FUNC PyInit__kernel(void)
{
    const char *failed = sha256_select();
    PyObject *os, *module;
    if (failed != NULL)
        return PyErr_Format(PyExc_RuntimeError,
                            "chainsteg._kernel: the %s failed its known-answer test", failed);
    if ((NAME_INPUTS = PyUnicode_InternFromString("inputs")) == NULL ||
        (NAME_OUTPUTS = PyUnicode_InternFromString("outputs")) == NULL ||
        (NAME_FEE = PyUnicode_InternFromString("fee")) == NULL ||
        (NAME_TXID = PyUnicode_InternFromString("txid")) == NULL ||
        (NO_ARGS = PyTuple_New(0)) == NULL)
        return NULL;
    if (!fe_inv_passes_kat())
        return PyErr_Format(PyExc_RuntimeError,
                            "chainsteg._kernel: the safegcd inversion failed its known-answer test");
    build_table();
    if ((failed = comb_select()) != NULL)
        return PyErr_Format(PyExc_RuntimeError,
                            "chainsteg._kernel: the %s failed its known-answer test", failed);
    if ((os = PyImport_ImportModule("os")) == NULL)
        return NULL;
    URANDOM = PyObject_GetAttrString(os, "urandom");
    Py_DECREF(os);
    if (URANDOM == NULL || PyType_Ready(&UtxoTableType) < 0 ||
        (module = PyModule_Create(&kernel_module)) == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "UtxoTable", (PyObject *)&UtxoTableType) < 0)
        Py_CLEAR(module);
    return module;
}
