"""Key material: secret affine maps, public quadratic equations, file codec.

A public key consists of n equations over GF(2),

    sum_{j<k} a_jk x_j x_k + sum_{j,k} b_jk x_j y_k
        + sum_k d_k x_k + sum_k c_k y_k + e = 0,

quadratic in the plaintext bits x and linear in the ciphertext bits y once
x is fixed.  They are the coordinates of the hidden relation's residual
R(u, v) at u = s(x), v = t(y).  The degree-two part of R is
F(u) u + (F(u) + u) v, with F the Frobenius map u -> u^(2^m), so
derive_public_key reads a_jk and b_jk off its polar (bilinear) forms,
and d_k and c_k off the same bilinearity: three lane-packed field
products per row j of the coefficients and three for the linear terms, all
through byte multiples of the packed lanes that every product shares, then
one word-parallel bit transpose straight into the key file's fields.

A PublicKey holds per equation the five fields of the key file: xx (the
a_jk, pairs j < k in lexicographic order, so row j starts at bit j*n -
j(j+1)/2), xy (the b_jk, row-major, row j at bit j*n), xl (the d_k), yl
(the c_k) and c (e).  The call of PublicKey.solve, encryption's solve,
that brings its count of solved blocks to K = n // 4 + 2 or past it
checks the certificate below, once, so a key is in one of three states,
and only ever moves forward:

    below K     the fields; solve eliminates (linalg.solve_linear)
    refused     the fields, for good; solve eliminates
    certified   the fields and a _Certified, which holds every table the
                key builds: from the certificate, M(0) and P = M(0)^-1 as
                AffineMaps and the bit planes, so solve takes one Field.inv
                a call (_Certified.solve); from the first holds,
                verification's lane tables, the gate's and below n =
                _PRODUCT_FROM the whole ones (_Certified.build_lanes)

derive_public_key and decode_key build the fields and nothing else, and
encode_key writes them as they are.  A QuadraticEquation is a view of
one equation's fields, so PublicKey.equations and PublicKey(n, equations)
convert nothing.

holds on a key that is not certified evaluates on the fields.  Let sx be
x spread to stride n (bit j moved to bit j*n).  Then Y = y * sx is x (x)
y row-major, bit j*n + k = x_j y_k: its n copies of y are n bits wide and
n bits apart, so the product has no carries.  Likewise x * sx is x (x) x, and T,
its compress by the strict upper triangle (bits j*n + k, k > j), holds
x_j x_k for j < k in lexicographic order: the order of xx.  Each equation
is then

    parity(xx & T) ^ parity(xy & Y) ^ parity(xl & x) ^ parity(yl & y) ^ c,

two ANDs of about n^2 / 2 and n^2 bits (_monomials builds T and Y, and
QuadraticEquation.evaluate reads one equation the same way).  sx itself
is (x mod 2^(n-1)) * sum_{k<n-1} 2^(k(n-1)) masked to the bits j*n: the
product's copies of x mod 2^(n-1) are n - 1 bits wide and n - 1 bits
apart, so they do not overlap, and copy j holds x_j at j(n - 1) + j =
j*n; bit n - 1 of x is shifted into place on its own.  The compress takes
about log2(n^2) masked shifts (Hacker's Delight, 2nd ed., 7-4), by move
masks that _compress_steps builds once per n (_spread_masks).

linear_system reads the fields too.  Y at y = 2^n - 1 is sx (2^n - 1),
all ones in the rows j with x_j = 1, so one _monomials call gives T and
that mask.  In the system at x, M(x) y = r(x), row i of M(x) is equation
i's xy under the mask, folded from n rows of n bits onto one by ceil(log2
n) shift-XORs that halve the count of rows (_fold_steps), XOR yl, and
bit i of r(x) is parity(xx & T) ^ parity(xl & x) ^ c.

On a certified key, holds reads a lane-major copy of the fields (the
bitsliced evaluation of Berbain, Billet and Gilbert, SAC 2006, turned on
its side): L_0..L_n hold one byte-aligned chunk per equation, and chunk i
of L_j holds the terms of equation i in 2n + 1 bits, indices 0-based:

    L_j, j < n   bits 0..n-1: a_jk (zero for k <= j), bits n..2n-1: b_jk,
                 bit 2n: zero
    L_n          bits 0..n-1: d_k, bits n..2n-1: c_k, bit 2n: e

_lane_major cuts L_j out of the fields: row j of every xx and of every xy
by one byte slice per equation, one shift of the joined bytes, one mask
per chunk and one shift into place.  The lane sum, L_n XOR every L_j with
x_j = 1, holds in chunk i equation i with x fixed: bits n..2n-1 are the
coefficients of y, and parity(v & x) ^ v_2n, v the chunk, is the rest.
The key keeps the copy only as 4-bit window tables, the Four Russians
lookup (Bard, IACR ePrint 2006/251) that AffineMap uses:
linalg.nibble_windows of L_0..L_{n-1}, with L_n as the constant, so a
lane sum is one linalg.apply_windows call.  holds first reads the tables
of the copy cut to its first min(_GATE, n) = 6 chunks, a gate that
checks six equations with one lookup, one AND and one parity fold.  Only
a pair that passes it, about one forgery in 64, reads on: below n =
_PRODUCT_FROM = 97 the tables of the whole copy, and from there one
field product that checks them all (below, after the certificate).  So
holds builds what its path reads, once, at its first call on a certified
key, after the range check, from one walk of the fields
(_Certified.build_lanes): all n equations below _PRODUCT_FROM, whose
copy gives the whole tables and, cut, the gate's, and the first six from
there, for the gate's alone.  A key that only encrypts never walks them.
By tracemalloc the gate and whole tables take 0.06 and 0.35 MB at n = 33
and 65, and the gate alone 0.08, 0.12 and 0.45 MB at n = 97, 129 and
257, where the whole tables would take 1.06, 2.4 and 17.9 MB.  A
certified key's plane tables (below) take 0.09, 0.60 and 4.5 MB at n =
65, 129 and 257 (0.32, 1.4 and 7.8 MB at the peak of their build).  With
the per-n caches warm, a decoded key that one 3 KiB message certifies
holds 0.12, 0.67 and 4.65 MB more at n = 65, 129 and 257, M(0) and its
inverse included, and 0.47, 0.80 and 5.1 MB more after its first holds.

linalg.solve_linear eliminates; the construction gives a shortcut.
Equation i is coordinate i, in the polynomial basis of the public
modulus, of R(u, v) = w(u) v + h(u) at u = s(x), v = A2 y + c2, with w(u)
= F(u) + u + alpha.  So M(x) = Mult(w(s(x))) A2, Mult(z) the matrix of a
-> z a.  w never vanishes, so M(0), whose rows are the yl fields, is
invertible.  With P = M(0)^-1 and p0 = P e0 (e0 the element 1), M(x) =
Mult(z(x)) M(0) for z(x) = M(x) p0, and the one solution is y = P (r(x) /
z(x)): one Field.inv, one Field.mul and P applied as an AffineMap, and a
list of blocks shares the Field.inv (Field.quotients).

A key from a file need not come from the construction, so a key earns the
shortcut by a certificate.  M(x) = M(0) + sum_j x_j B_j, where row i of
B_j is row j of equation i's xy.  If B_j = Mult(z_j) M(0), z_j = B_j p0,
for every j, then z(x) = 1 + sum_j x_j z_j and M(x) = Mult(z(x)) M(0) for
every x: M(x) is singular exactly when z(x) = 0, and that raises the
MalformedKeyError elimination raises.  _certify forms M(0) once, as an
AffineMap whose rows are the yl fields, and takes P as its inverse.  It
reads the z_j off the xy fields: bit i of z_j is the parity of row j of
xy_i under p0, so xy_i AND p0 in every row, each row folded onto bit j*n
by ceil(log2 n) masked shift-XORs and compressed by the diagonal, is row
i of the matrix whose columns are the z_j (_z_rows, by steps that
_spread_masks builds once per n).  n lane products through the columns
of M(0) check every j, as derivation takes the coefficients.  A key
whose M(0) is singular, or that fails for any j, is refused for good,
keeps the elimination and builds nothing.

A key that passes then builds the tables that _Certified.fraction reads
r(x) and z(x) off, in one lookup.  r(x) is e plus the quadratic form
sum_{j<=k} x_j x_k a_jk, with a_kk = d_k since x_k^2 = x_k, and every
a_jk is an n-bit vector over the equations: so r is taken
equation-sliced, in the layout of Berbain, Billet and Gilbert's
bitsliced evaluation.  Plane k of a value, k = 0 .. n, is its bits
(n - k) w .. (n + 1 - k) w - 1, w = 8 ceil(n/8), and the bit-plane lane
Q_j holds a_jk in plane k for every k >= j, nothing in planes k < j,
and z_j in plane n, the bottom one.  The plane sum S(x), 1 (z's translation)
XOR every Q_j with x_j = 1, holds z(x) in plane n and in plane k < n
S_k(x) = sum_{j<=k, x_j=1} a_jk, and

    r(x) = e + sum_{k: x_k=1} S_k(x):

S(x) ANDed with 0xFF bytes in the planes that x selects, then folded onto
one plane by ceil(log2(n + 1)) shifts and masks that halve the count of
planes (_fold_steps, as in the row fold above).  The select mask is built
a byte of x at a time: spread[b] holds the 8 planes that byte b's bits
select, a plane of 0x00 or 0xFF bytes each, bit 0 first, so the join of
spread over x's little-endian bytes, read big-endian, holds plane x_0 at
the top of 8 ceil(n/8) planes, and a right shift by (8 ceil(n/8) - n -
1) w puts plane x_k at plane k and a plane of zeros at plane n, as x < 2^n
(_plane_masks keeps spread, the shift and the folds per n).
_plane_tables keeps Q_0, ..., Q_{n-1} as linalg.nibble_windows of x.  Q_j
spans planes j..n, which sit at the bottom of the value: plane 0 on top
makes a lane as narrow as the planes it holds, and the tables about half
the bytes that plane 0 at the bottom would.  One bit transpose
(linalg.bit_column_bytes) of xx | xl << n(n-1)/2 per equation gives every
a_jk and d_k as the bytes of one plane, and each lane is one slice of
those bytes behind its d_j.

Verification on a certified key reads the same identity.  Equation i at
(x, y) is bit i of M(x) y + r(x), so every equation vanishes exactly when
M(x) y = r(x), that is, as the certificate proved M(x) = Mult(z(x)) M(0),
when r(x) = z(x) (M(0) y) in F(2^n).  The check is exact, z(x) = 0
included: M(x) is then zero, and both sides ask for r(x) = 0.  From n =
_PRODUCT_FROM a pair that passes the gate takes one fraction(x), the
certificate's M(0) map applied to y, and one Field.mul.  The whole lane
tables' lookup sums n chunks of 2n + 1 bits, and a valid verify by the
product took 1.01-1.14 times as long as through them at n = 65,
0.98-1.02 at 81, 0.94-0.96 at 97, 0.88 at 113 and 0.74-0.78 at 129
(_PRODUCT_FROM gives the runs).

Pinned to one CPU of a shared 2-CPU x86-64 machine, over three runs on a
decoded key of keygen(n, 7), the K-th block of a key that passes, the
certificate and the plane tables, takes about 0.9-1.1, 2.9-3.2, 14-15 and 117-168 ms at
n = 33, 65, 129 and 257.  A certified block then takes 0.034-0.037,
0.051-0.056, 0.091-0.101 and 0.19-0.29 ms alone, against 0.12-0.13,
0.26-0.27, 0.59-0.63 and 1.5-1.6 ms by elimination from the fields.  The
build pays for itself after 10-11, 14-15, 27-28 and 92-131 blocks one at
a time, and K = n // 4 + 2 (_certify_after: 10, 18, 34 and 66) is within
about a factor of two of that at each size: the ski-rental rule (Karlin,
Manasse, Rudolph and Sleator, "Competitive snoopy caching", Algorithmica
3, 1988), by which buying at the break-even costs at most about twice the
best choice made in hindsight.  K is at least 2, so a key that encrypts
one block builds no tables.  The first holds on a certified key, which
walks all n equations at n = 33 and 65 for the gate's and whole lane
tables and six at 129 and 257 for the gate's, takes 0.47-0.57, 1.8-1.9,
1.5-1.6 and 6.8-7.0 ms (five runs on a key of keygen(n,
0x4C44325F424E4348) that a 3 KiB message certified), and a valid verify
after it 6.4-7.4, 13.4-13.5, 28-47 and 76-83 us (medians of 21 rounds of
300, two runs, one per CPU).

Key files are line oriented:

    line 1   LD2-SECRET v1            or  LD2-PUBLIC v1
    line 2   n=<int> m=<int>
    line 3   poly=<hex of the (n+1)-bit modulus>
    secret   alpha=<hex>  A1=<hex of n^2 bits>  c1=<hex>  A2=<hex>  c2=<hex>
    public   per equation i (1..n):
             eq<i>.xx=<hex of n(n-1)/2 bits, pairs (j,k) with j < k in
             lexicographic order>, eq<i>.xy=<hex of n^2 bits row-major>,
             eq<i>.xl=<hex>, eq<i>.yl=<hex>, eq<i>.c=<0|1>

All hex fields are lowercase and pack bit i of the value into bit i % 8 of
byte i // 8 (see gf2n).  Every line ends with a newline, and the modulus
is the canonical one for the degree.  A file decodes only if it is exactly
the text encode_key writes for the key it describes, so unknown,
out-of-order or reformatted lines are format errors.  n alone fixes where
everything in that text is, and _layout(secret, n) describes it once, in
a small cache: each body line's name + "=", the width and digit count of
the five lines that repeat, and the text's length.  _key_text writes by
it, and decode_key reads a public file at its offsets
(_canonical_values): every size-n public file holds at least n^3 / 4
digits, so a claimed n with n^2 > 2 len(text) fails first; then the
length, the three header lines whole, then for each line its name,
exactly its value's digits, binascii.a2b_hex of them with their slack
bits, and its newline, and last a scan of the values for A-F, which
a2b_hex accepts.  Text that passes is encode_key's text of the key whose
fields are its values: each value has exactly its line's width, and the
fields are kept as they are.  A secret file, eight short lines, and any
text that fails there go to _decode_lines, a line parser: it names a bad
value's line first, then a broken key invariant, and returns the key only
if _key_text of the values it parsed is the text, else names the first
line that differs.  On a secret file the text it builds costs little
next to building the key: a secret decode by lines measured within 2 % of
one at offsets at n = 65, 129 and 257.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
from binascii import a2b_hex
from dataclasses import dataclass

from .gf2n import Field, bits_to_hex, byte_multiples, clmul_bytes, find_irreducible, hex_to_bits
from .gf2n import packed_size
from .linalg import AffineMap, BitMatrix, Prng, SingularMatrixError, apply_windows
from .linalg import bit_column_bytes, bit_columns, nibble_windows, random_invertible
from .linalg import rank, solve_linear


class KeyFormatError(ValueError):
    """Raised when a key file is malformed or violates a key invariant."""


def _compress_steps(mask: int, width: int) -> tuple:
    """The steps that compress the bits of mask, in a value of width bits,
    down to the low bits.  Step (s, move) shifts the bits in move right by
    s: the mask bits whose count of clear mask bits below them has the bit
    s set, counted by a parallel suffix (Hacker's Delight, 2nd ed., 7-4)."""
    full = (1 << width) - 1
    zeros = ~mask << 1 & full  # bit i set: mask bit i - 1 is clear
    rest, steps, shift = mask, [], 1
    while shift < width:
        suffix, span = zeros, 1
        while span < width:
            suffix = (suffix ^ suffix << span) & full
            span *= 2
        move = suffix & rest
        rest = rest ^ move | move >> shift
        zeros &= ~suffix
        if move:
            steps.append((shift, move))
        shift *= 2
    return tuple(steps)


def _compress(x: int, mask: int, steps) -> int:
    """The bits of x under mask, packed down in position order."""
    x &= mask
    for shift, move in steps:
        t = x & move
        x = x ^ t | t >> shift
    return x


@functools.lru_cache(maxsize=None)
def _spread_masks(n: int) -> tuple[int, int, int, tuple, tuple]:
    """The constant masks of _monomials and _z_rows for n variables: comb,
    1 at every multiple of n - 1 below (n - 1)^2; diagonal, 1 at every
    multiple of n below n^2; triangle, the bits j*n + k with j < k < n;
    and the _compress_steps of triangle and of diagonal."""
    comb = sum(1 << (k * (n - 1)) for k in range(n - 1))
    diagonal = sum(1 << (j * n) for j in range(n))
    triangle = sum(((1 << n) - (2 << j)) << (j * n) for j in range(n))
    steps = [_compress_steps(mask, n * n) for mask in (triangle, diagonal)]
    return comb, diagonal, triangle, *steps


def _monomials(n: int, x: int, y: int) -> tuple[int, int]:
    """(T, Y): the monomials x_j x_k (j < k) in the order of xx, and
    x (x) y, row-major as xy is (module docstring)."""
    comb, diagonal, triangle, steps, _ = _spread_masks(n)
    low = (1 << n - 1) - 1  # bits 0..n-2 of x
    sx = (x & low) * comb & diagonal | x >> n - 1 << n * (n - 1)
    return _compress(x * sx, triangle, steps), y * sx


def _vanish_on_fields(n: int, fields, x: int, y: int) -> bool:
    """Whether every equation vanishes at (x, y), evaluated one by one on
    its file fields."""
    pairs, products = _monomials(n, x, y)
    return not any(
        ((xx & pairs).bit_count() ^ (xy & products).bit_count()
         ^ (xl & x).bit_count() ^ (yl & y).bit_count() ^ c) & 1
        for xx, xy, xl, yl, c in fields
    )


# equations holds checks through the gate tables before it reads the whole
# tables
_GATE = 6

# n from which holds checks a certified key past the gate by one field
# product, r(x) = z(x) M(0) y, rather than the whole lane tables (module
# docstring).  Valid verify on a key of keygen(n, 0x4C44325F424E4348)
# that a 3 KiB message certified, medians of 21 alternating rounds of 300,
# pinned to one CPU of a shared 2-CPU x86-64 machine, two or three runs:
# the product took 1.01-1.14 times as long as the whole tables at n = 65
# (won 0 and 5 of 21 rounds), 0.98-1.02 at 81 (7, 8), 0.94-0.96 at 97
# (17, 20, 21), 0.88 at 113 (20, 21) and 0.74-0.78 at 129 (20, 21).  From
# 97 on, the gate's tables take 0.08-0.45 MB where the gate's and the
# whole tables take 1.06-17.9 MB.
_PRODUCT_FROM = 97


def _chunk_bytes(n: int) -> int:
    """Bytes per chunk of the lane-major copy: enough for 2n + 1 bits that
    start at any bit of their first byte, so a byte slice of this size holds
    a row of a field wherever the row starts (_lane_major)."""
    return (2 * n + 15) // 8


@functools.lru_cache(maxsize=None)
def _chunk_masks(n: int) -> tuple[int, int]:
    """(ones, low): bit 0, and bits 0..n, of every chunk of the lane-major
    copy."""
    ones = sum(1 << (8 * _chunk_bytes(n) * i) for i in range(n))
    return ones, ((1 << n + 1) - 1) * ones


def _even_chunks(n: int, v: int, terms: bytes, count: int) -> bool:
    """Whether chunks 0..count - 1 of v & terms, terms the bytes of one
    chunk repeated count times, all have even parity: chunk i of a lane sum
    then holds the value of equation i at (x, y)."""
    ones, low = _chunk_masks(n)
    v &= int.from_bytes(terms * count, "little")
    # bits n+1..2n of each chunk onto bits 0..n-1, then bits 0..n onto
    # bit 0: a window of the least power of two above n, which stays
    # inside the chunk (chunks are at least 2n + 8 bits wide)
    v = (v ^ v >> n + 1) & low
    shift = 1
    while shift <= n:
        v ^= v >> shift
        shift *= 2
    return not v & ones


def _lane_major(n: int, fields) -> tuple[int, ...]:
    """The lane-major copy of the fields: entry j holds lane j of equation
    i in chunk i, bits 0..2n of bytes i*c .. (i + 1)*c - 1, c =
    _chunk_bytes(n), and every other bit of a chunk is zero.

    Row j of xx starts at bit j*n - j(j+1)/2 and row j of xy at bit j*n,
    so each is the c bytes of its field from that bit's byte on, shifted
    right by the bit's place in the byte.  The bits above the row spill
    over from the next row or the next equation, and a mask per chunk
    clears them.
    """
    size = _chunk_bytes(n)
    ones = _chunk_masks(n)[0]
    xx_records = [f[0].to_bytes(n * (n - 1) // 16 + size, "little") for f in fields]
    xy_records = [f[1].to_bytes(n * n // 8 + size, "little") for f in fields]

    def rows(records, offset: int, width: int) -> int:
        start, shift = divmod(offset, 8)
        chunks = b"".join([record[start:start + size] for record in records])
        return int.from_bytes(chunks, "little") >> shift & (ones << width) - ones

    lanes = [
        rows(xx_records, j * n - j * (j + 1) // 2, n - 1 - j) << j + 1
        | rows(xy_records, j * n, n) << n
        for j in range(n)
    ]
    affine = b"".join([(xl | yl << n | c << 2 * n).to_bytes(size, "little")
                       for _, _, xl, yl, c in fields])
    return (*lanes, int.from_bytes(affine, "little"))


def _certify_after(n: int) -> int:
    """K, the encrypted-block count at which a key is certified (module
    docstring): at least 2, so a key that encrypts one block never pays
    for the certificate."""
    return n // 4 + 2


@functools.lru_cache(maxsize=None)
def _fold_steps(count: int, width: int) -> tuple:
    """The (shift, low) steps that fold count rows of width bits, row r at
    bit r*width, onto row 0 by XOR, halving the count of rows each step."""
    steps = []
    while count > 1:
        count = (count + 1) // 2
        steps.append((width * count, (1 << width * count) - 1))
    return tuple(steps)


def _fold(v: int, steps) -> int:
    """The XOR of the rows of v, folded by steps (_fold_steps)."""
    for shift, low in steps:
        v = v & low ^ v >> shift
    return v


@functools.lru_cache(maxsize=None)
def _plane_masks(n: int) -> tuple[tuple[bytes, ...], int, tuple]:
    """(spread, shift, folds) for the bit planes of n variables: spread[b]
    is the 8 planes of 0x00 or 0xFF bytes that byte b's bits select, bit 0
    first, so that the join of spread over x's little-endian bytes, read
    big-endian and shifted right by shift, is the mask of the planes that x
    selects (module docstring); folds is the _fold_steps of the n + 1
    planes."""
    size = (n + 7) // 8
    planes = (bytes(size), b"\xff" * size)
    spread = tuple(b"".join(planes[b >> t & 1] for t in range(8)) for b in range(256))
    return spread, (8 * size - n - 1) * 8 * size, _fold_steps(n + 1, 8 * size)


def _plane_tables(n: int, fields, z) -> tuple:
    """linalg.nibble_windows of the bit-plane lanes Q_0, ..., Q_{n-1}
    (module docstring), so that apply_windows of x is the plane sum at x.
    Entry p of the bit transpose of xx | xl << n(n-1)/2 per equation is the
    vector over the equations of pair p's a_jk, or of d_{p - n(n-1)/2},
    most significant byte first: row j of the pairs, read big-endian behind
    d_j and ahead of z_j = z[j], puts plane k of Q_j in bits (n - k) w ..
    (n + 1 - k) w - 1."""
    size = (n + 7) // 8
    pairs = n * (n - 1) // 2
    stride = (pairs + n + 7) // 8
    data = b"".join((xx | xl << pairs).to_bytes(stride, "little") for xx, _, xl, _, _ in fields)
    planes = b"".join(bit_column_bytes(data, stride, pairs + n))
    lanes = []
    for j in range(n):
        start = (j * n - j * (j + 1) // 2) * size  # row j of the pairs
        diagonal = (pairs + j) * size
        lanes.append(int.from_bytes(
            planes[diagonal:diagonal + size] + planes[start:start + (n - 1 - j) * size]
            + z[j].to_bytes(size, "big"), "big"))
    return nibble_windows(lanes)


class _Certified:
    """Everything a key that passed the certificate builds, each part once.
    At the K-th block: the field of the public modulus, m0, M(0) as an
    AffineMap whose rows are the yl fields, p = M(0)^-1, the plane tables
    (with the z_j) and e, the c fields as one vector, so that encryption
    solves y = P (r / z(x)) (module docstring).  At the first holds,
    build_lanes: gate and lanes, verification's lane tables, each a
    (windows, constant) pair, and None until then.  lanes stays None from
    n = _PRODUCT_FROM, where holds checks r(x) = z(x) M(0) y by fraction
    and m0, exact on this key as M(x) = Mult(z(x)) M(0)."""

    __slots__ = ("field", "m0", "p", "_planes", "_e", "gate", "lanes")

    def __init__(self, fields, field: Field, m0: AffineMap, p: AffineMap, z: tuple[int, ...]):
        self.field = field
        self.m0 = m0
        self.p = p
        self._planes = _plane_tables(field.n, fields, z)
        self._e = sum(f[4] << i for i, f in enumerate(fields))
        self.gate = self.lanes = None

    def build_lanes(self, fields) -> tuple:
        """Build gate and lanes from one _lane_major walk, of all n
        equations below n = _PRODUCT_FROM and of the first _GATE from
        there, and return gate: the copy cut to its first min(_GATE, n)
        chunks.  Each is linalg.nibble_windows of lanes 0..n-1, with lane n
        as the constant, so apply_windows(windows, x, constant) is the lane
        sum at x."""
        n = self.field.n
        gate = min(_GATE, n)
        copy = _lane_major(n, fields if n < _PRODUCT_FROM else fields[:gate])
        cut = (1 << 8 * _chunk_bytes(n) * gate) - 1
        self.gate = nibble_windows([lane & cut for lane in copy[:n]]), copy[n] & cut
        if n < _PRODUCT_FROM:
            self.lanes = nibble_windows(copy[:n]), copy[n]
        return self.gate

    def fraction(self, x: int) -> tuple[int, int]:
        """(r, z(x)) from one lookup, the plane sum at x from 1, with x as it
        is: r, the right-hand side of the system at x, is e xor the fold of
        the planes that x selects, under the mask that spread builds from
        x's bytes, and z(x) = M(x) p0 is plane n (module docstring)."""
        n = self.field.n
        spread, shift, folds = _plane_masks(n)
        v = apply_windows(self._planes, x, 1)
        select = b"".join(map(spread.__getitem__, x.to_bytes((n + 7) // 8, "little")))
        return _fold(v & int.from_bytes(select, "big") >> shift, folds) ^ self._e, v & (1 << n) - 1

    def solve(self, blocks) -> list[int]:
        """The solutions P (r / z(x)) of the systems at blocks, by one field
        inversion (Field.quotients); SingularMatrixError if some z(x) = 0."""
        fractions = [self.fraction(x) for x in blocks]
        if not all(z for _, z in fractions):
            raise SingularMatrixError("matrix is singular")
        return [self.p.apply(q) for q in self.field.quotients(fractions)]


def _z_rows(n: int, fields, p0: int) -> list[int]:
    """The rows of the matrix whose column j is z_j = B_j p0 (module
    docstring).  Each fold's shift is masked to the row's bits 0..width -
    half - 1, so that an odd width pulls in no bit of the next row; the
    compress by the diagonal drops the bits the folds leave above j*n."""
    _, diagonal, _, _, gather = _spread_masks(n)
    folds, width = [], n
    while width > 1:
        half = (width + 1) // 2
        folds.append((half, ((1 << width - half) - 1) * diagonal))
        width = half
    rows = []
    for f in fields:
        v = f[1] & p0 * diagonal
        for half, high in folds:
            v ^= v >> half & high
        rows.append(_compress(v, diagonal, gather))
    return rows


def _certify(n: int, fields) -> _Certified | None:
    """The _Certified of the key, with M(0), P = M(0)^-1 and the z_j, the
    columns of the matrix read off the xy fields (_z_rows), if B_j =
    Mult(z_j) M(0), z_j = B_j p0, for every j, else None; None too when
    M(0) is singular.

    The columns m_k of M(0), read off its map's tables (AffineMap.columns)
    and packed one per lane, are tabulated once by their byte multiples,
    and each z_j takes one carry-less product through them: z_j m_k for
    every k, in key-file order.  One bit transpose (linalg.bit_columns) of
    the n products holds in entry i bit i of every z_j m_k, at bit j n + k:
    equation i's xy if the check holds."""
    m0 = AffineMap(BitMatrix([f[3] for f in fields], n), 0)
    try:
        p = m0.inverse()
    except SingularMatrixError:
        return None
    z = BitMatrix(_z_rows(n, fields, p.apply(1)), n).transpose().rows
    field = Field(n)
    multiples = byte_multiples(field.pack_lanes(m0.columns))
    row = field.lane_bytes * n
    data = b"".join(
        field.fold_lanes(clmul_bytes(multiples, zj)).to_bytes(row, "little") for zj in z)
    columns = bit_columns(data, field.lane_bytes, n)
    if any(column != f[1] for column, f in zip(columns, fields)):
        return None
    return _Certified(fields, field, m0, p, z)


def _equation_widths(n: int) -> tuple[tuple[str, int], ...]:
    """Name and bit width of each key-file field of one equation."""
    return ("xx", n * (n - 1) // 2), ("xy", n * n), ("xl", n), ("yl", n), ("c", 1)


def _secret_widths(n: int) -> tuple[tuple[str, int], ...]:
    """Name and bit width of each line of a secret key file's body."""
    return ("alpha", n), ("A1", n * n), ("c1", n), ("A2", n * n), ("c2", n)


def _set_bits(value: int) -> list[int]:
    """The positions of the set bits of value, lowest first."""
    return [i for i, bit in enumerate(reversed(f"{value:b}")) if bit == "1"]


@dataclass(frozen=True)
class QuadraticEquation:
    """One public equation as its five key-file fields (module docstring).

    Indices below are 1-based.  Bit i of xx is the i-th pair j < k in
    lexicographic order, the x_j x_k term; bit (j - 1) n + k - 1 of xy is
    the x_j y_k term; bit k - 1 of xl and of yl are the x_k and y_k terms,
    and c is the constant.  Each field must fit its width.
    """

    n: int
    xx: int
    xy: int
    xl: int
    yl: int
    c: int

    def __post_init__(self):
        values = (self.xx, self.xy, self.xl, self.yl, self.c)
        for (name, width), value in zip(_equation_widths(self.n), values):
            if not 0 <= value < 1 << width:
                raise ValueError(f"{name} must be a {width}-bit value")

    @classmethod
    def from_terms(cls, n, xx=(), xy=(), x=(), y=(), constant=0) -> QuadraticEquation:
        """Build an equation from 1-based term indices, each term at most
        once: a repeated term would cancel over GF(2)."""
        bits = ([], [], [], [])
        for j, k in xx:
            if not 1 <= j < k <= n:
                raise ValueError("xx pair must satisfy 1 <= j < k <= n")
            # row j - 1 of the pairs starts at (j - 1) n - (j - 1) j / 2
            bits[0].append((j - 1) * n - (j - 1) * j // 2 + k - j - 1)
        for j, k in xy:
            if not (1 <= j <= n and 1 <= k <= n):
                raise ValueError("xy pair out of range")
            bits[1].append((j - 1) * n + k - 1)
        for field, indices in zip(bits[2:], (x, y)):
            for j in indices:
                if not 1 <= j <= n:
                    raise ValueError("linear term out of range")
                field.append(j - 1)
        if any(len(set(field)) < len(field) for field in bits):
            raise ValueError("repeated term")
        return cls(n, *(sum(1 << bit for bit in field) for field in bits), constant)

    def terms(self):
        """The equation as sorted 1-based term indices.

        Returns (xx_pairs, xy_pairs, x_indices, y_indices, constant).
        """
        n = self.n
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        xx = tuple(pairs[i] for i in _set_bits(self.xx))
        xy = tuple((i // n + 1, i % n + 1) for i in _set_bits(self.xy))
        x = tuple(i + 1 for i in _set_bits(self.xl))
        y = tuple(i + 1 for i in _set_bits(self.yl))
        return xx, xy, x, y, self.c

    @property
    def constant(self) -> int:
        """The constant term."""
        return self.c

    def evaluate(self, x: int, y: int) -> int:
        """Value of the equation's left side at n-bit blocks (x, y); 0 when
        it holds."""
        pairs, products = _monomials(self.n, x, y)
        return ((self.xx & pairs).bit_count() ^ (self.xy & products).bit_count()
                ^ (self.xl & x).bit_count() ^ (self.yl & y).bit_count() ^ self.c) & 1


class PublicKey:
    """The n public quadratic equations over F(2^n), n = 2m - 1.

    fields holds, per equation, its five key-file fields (xx, xy, xl, yl,
    c), always; equations views each of them as a QuadraticEquation.
    _blocks counts the blocks solved; _inversion is None until the K-th,
    then a _Certified, which holds every table the key builds, or False
    for a key the certificate refused (module docstring).
    """

    __slots__ = ("n", "fields", "_blocks", "_inversion")

    def __init__(self, n: int, equations):
        if n < 3 or n % 2 == 0:
            raise ValueError("n must be odd and at least 3")
        equations = tuple(equations)
        if len(equations) != n:
            raise ValueError("expected exactly n equations")
        if any(eq.n != n for eq in equations):
            raise ValueError("equation size mismatch")
        self._set(n, tuple((eq.xx, eq.xy, eq.xl, eq.yl, eq.c) for eq in equations))

    @classmethod
    def _from_fields(cls, n: int, fields: tuple) -> PublicKey:
        """The key whose equations have these file fields, each at exactly
        its width (_equation_widths)."""
        key = cls.__new__(cls)
        key._set(n, fields)
        return key

    def _set(self, n: int, fields: tuple) -> None:
        self.n = n
        self.fields = fields
        self._blocks = 0
        self._inversion = None

    @property
    def equations(self) -> tuple[QuadraticEquation, ...]:
        """The equations, one view of the fields each."""
        return tuple(QuadraticEquation(self.n, *f) for f in self.fields)

    def holds(self, x: int, y: int) -> bool:
        """Whether every public equation vanishes at (x, y).

        On a key that is not certified the equations are evaluated one by
        one on the fields, against T (the xx monomials at x) and Y = x (x)
        y, until one is 1 (_vanish_on_fields).  On a certified key, whose
        first call builds verification's lane tables
        (_Certified.build_lanes), the gate's lane sum is ANDed with terms =
        x | y << n | 1 << 2n in every chunk, and _even_chunks folds its six
        equations' parities at once.  A pair that passes the gate is then
        checked the same way through the whole lane tables below n =
        _PRODUCT_FROM, and from there by one field product: the
        certificate proved M(x) = Mult(z(x)) M(0), so every equation
        vanishes, M(x) y = r(x), exactly when r(x) = z(x) (M(0) y) in
        F(2^n), with r(x) and z(x) from _Certified.fraction.
        """
        n = self.n
        top = 1 << n
        if not (0 <= x < top and 0 <= y < top):
            raise ValueError("block length mismatch")
        inversion = self._inversion
        if not inversion:
            return _vanish_on_fields(n, self.fields, x, y)
        windows, constant = inversion.gate or inversion.build_lanes(self.fields)
        terms = (x | y << n | 1 << 2 * n).to_bytes(_chunk_bytes(n), "little")
        if not _even_chunks(n, apply_windows(windows, x, constant), terms, min(_GATE, n)):
            return False
        lanes = inversion.lanes
        if lanes:
            return _even_chunks(n, apply_windows(lanes[0], x, lanes[1]), terms, n)
        r, z = inversion.fraction(x)
        return r == inversion.field.mul(z, inversion.m0.apply(y))

    def linear_system(self, x: int):
        """Matrix and right-hand side of the linear system in y at fixed x,
        folded from the fields (module docstring)."""
        n = self.n
        if not 0 <= x < 1 << n:
            raise ValueError("block length mismatch")
        # x (x) y at y = 2^n - 1: all ones in the rows j with x_j = 1
        pairs, select = _monomials(n, x, (1 << n) - 1)
        steps = _fold_steps(n, n)
        rows, rhs = [], 0
        for i, (xx, xy, xl, yl, c) in enumerate(self.fields):
            rows.append(_fold(xy & select, steps) ^ yl)
            rhs |= (((xx & pairs).bit_count() ^ (xl & x).bit_count() ^ c) & 1) << i
        return BitMatrix(rows, n), rhs

    def solve(self, blocks) -> list[int]:
        """The solutions y of the systems M(x) y = r(x) at the blocks x, in
        order; SingularMatrixError if one is singular.  The blocks are
        checked, then counted, and the call that brings the count to
        _certify_after(n) or past it certifies the key or refuses it, once
        (module docstring)."""
        n = self.n
        top = 1 << n
        if not all(0 <= x < top for x in blocks):
            raise ValueError("block length mismatch")
        self._blocks += len(blocks)
        if self._inversion is None and self._blocks >= _certify_after(n):
            self._inversion = _certify(n, self.fields) or False
        if self._inversion:
            return self._inversion.solve(blocks)
        return [solve_linear(*self.linear_system(x)) for x in blocks]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PublicKey)
            and self.n == other.n
            and self.fields == other.fields
        )

    def __hash__(self) -> int:
        return hash((self.n, self.fields))

    def __repr__(self) -> str:
        return f"PublicKey(n={self.n})"


class SecretKey:
    """Secret material: the field, affine maps s and t, alpha (trace 1) and
    s_inverse = s^-1.  Construction checks it all; a rank proves t invertible."""

    __slots__ = ("field", "s", "t", "alpha", "s_inverse", "_alpha_frob")

    def __init__(self, field: Field, s: AffineMap, t: AffineMap, alpha: int):
        if s.n != field.n or t.n != field.n:
            raise ValueError("affine map dimension mismatch")
        self.s_inverse = s.inverse()
        if rank(t.matrix) < field.n:
            raise SingularMatrixError("matrix is singular")
        if not 0 <= alpha < field.order:
            raise ValueError("alpha out of range")
        if field.trace(alpha) != 1:
            raise ValueError("alpha must have trace 1")
        self.field = field
        self.s = s
        self.t = t
        self.alpha = alpha
        self._alpha_frob = field.frobenius(alpha)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SecretKey)
            and self.field == other.field
            and self.s == other.s
            and self.t == other.t
            and self.alpha == other.alpha
        )

    def __hash__(self) -> int:
        return hash((self.field, self.s, self.t, self.alpha))

    def __repr__(self) -> str:
        # never echo secret values
        return f"SecretKey(n={self.field.n})"


def relation_residual(sk: SecretKey, x: int, y: int) -> int:
    """Residual vector of the hidden relation at plaintext x, ciphertext y.

    Zero exactly when y is the ciphertext of x under the matching public
    key, i.e. when t(y) equals the central map applied to s(x).
    """
    top = 1 << sk.field.n
    if not (0 <= x < top and 0 <= y < top):
        raise ValueError("block length mismatch")
    return _residual_uv(sk, sk.s.apply(x), sk.t.apply(y))


def _residual_uv(sk: SecretKey, u: int, v: int) -> int:
    # u^(2^m) u + u^(2^m) v + u v + u a + u^(2^m) + v a + a^(2^m)
    # = w (u + v) + u^2 + u^(2^m) + a^(2^m), w = u^(2^m) + u + a: w (u + v)
    # brings in u^2, which the square cancels
    f = sk.field
    uf = f.frobenius(u)
    return f.mul(uf ^ u ^ sk.alpha, u ^ v) ^ f.sqr(u) ^ uf ^ sk._alpha_frob


def derive_public_key(sk: SecretKey) -> PublicKey:
    """Expand the hidden relation into the fields of the n public equations.

    With s_j, t_k the columns of A1, A2, u0, v0 their translations and F
    the Frobenius map by 2^m, every coefficient is an n-bit vector (bit i
    for equation i):

        a_jk = F(s_j) s_k + F(s_k) s_j    (j < k: R's F(u) u, polarised)
        b_jk = (F(s_j) + s_j) t_k         (R's (F(u) + u) v)
        e    = R(u0, v0),  d_j = R(u0 + s_j, v0) + e,  c_k = R(u0, v0 + t_k) + e

    R(u, v) = F(u)(u + v) + u(v + alpha) + F(u) + v alpha + F(alpha), and F
    is linear, so the differences expand by bilinearity:

        d_j = F(u0) s_j + F(s_j)(u0 + v0 + s_j) + s_j (v0 + alpha) + F(s_j)
            = s_j (F(u0) + v0 + alpha) + F(s_j) (u0 + v0 + 1) + F(s_j) s_j
        c_k = F(u0) t_k + u0 t_k + t_k alpha = t_k (F(u0) + u0 + alpha)

    S, F(S) and T, the s_k, F(s_k) and t_k packed a field element per lane,
    are each tabulated once by their 256 byte multiples
    (gf2n.byte_multiples), which every row shares.  Row j then takes three
    carry-less products through them (gf2n.clmul_bytes): F(s_j) S + s_j
    F(S), cut to lanes k > j and folded once (a_jk; a fold acts lane by
    lane, so the cut may come first), and (F(s_j) + s_j) T (b_jk).  d and
    c take three more products through the same byte multiples, d's two
    folded once, plus n Field.mul for the F(s_j) s_j, and e is one
    _residual_uv.  The bytes of the products are the coefficient vectors,
    laid out in key-file order: the a_jk of every row (xx), then the b_jk
    of every row (xy), then d, c and e.  One bit transpose
    (linalg.bit_columns, by 8 x 8 bit blocks) turns them into one int per
    equation, xx | xy | xl | yl | c side by side, and shifts split it into
    the fields: all the key holds until its K-th encrypted block.
    """
    field = sk.field
    n = field.n
    size = field.lane_bytes
    width = 8 * size  # bits per lane
    s_cols = sk.s.columns
    t_cols = sk.t.columns
    s_frob = [field.frobenius(col) for col in s_cols]
    s_bytes, frob_bytes, t_bytes = (
        byte_multiples(field.pack_lanes(cols)) for cols in (s_cols, s_frob, t_cols)
    )
    a_rows, b_rows = [], []
    for j, (sj, fj) in enumerate(zip(s_cols, s_frob)):
        cut = width * (j + 1)  # a_jk for k > j only
        a_row = clmul_bytes(s_bytes, fj) ^ clmul_bytes(frob_bytes, sj)
        a_rows.append(field.fold_lanes(a_row >> cut).to_bytes(size * (n - 1 - j), "little"))
        b_row = field.fold_lanes(clmul_bytes(t_bytes, fj ^ sj))
        b_rows.append(b_row.to_bytes(size * n, "little"))
    u0, v0 = sk.s.translation, sk.t.translation
    u0_frob = field.frobenius(u0)
    d = field.fold_lanes(
        clmul_bytes(s_bytes, u0_frob ^ v0 ^ sk.alpha) ^ clmul_bytes(frob_bytes, u0 ^ v0 ^ 1)
    ) ^ field.pack_lanes(map(field.mul, s_frob, s_cols))
    c = field.fold_lanes(clmul_bytes(t_bytes, u0_frob ^ u0 ^ sk.alpha))
    e = _residual_uv(sk, u0, v0)
    linear = [d.to_bytes(size * n, "little"), c.to_bytes(size * n, "little"),
              e.to_bytes(size, "little")]
    data = b"".join(a_rows + b_rows + linear)
    pairs, square, low = n * (n - 1) // 2, n * n, (1 << n) - 1
    fields = []
    # column i collects bit i of every coefficient vector: equation i
    for column in bit_columns(data, size, n):
        xy = column >> pairs
        affine = xy >> square
        fields.append((column & (1 << pairs) - 1, xy & (1 << square) - 1,
                       affine & low, affine >> n & low, affine >> 2 * n))
    return PublicKey._from_fields(n, tuple(fields))


def keygen(n: int, seed: int) -> tuple[SecretKey, PublicKey]:
    """Deterministic key pair from a 64-bit seed.

    Draw order is fixed: alpha (redrawn until its trace is 1), then A1,
    c1, A2, c2, with matrices filled row-major by rejection sampling.
    """
    field = Field(n)
    prng = Prng(seed)
    while True:
        alpha = prng.bits(n)
        if field.trace(alpha) == 1:
            break
    s, t = (AffineMap(random_invertible(n, prng), prng.bits(n)) for _ in range(2))
    sk = SecretKey(field, s, t, alpha)
    return sk, derive_public_key(sk)


_SECRET_MAGIC = "LD2-SECRET v1"
_PUBLIC_MAGIC = "LD2-PUBLIC v1"


@functools.lru_cache(maxsize=8)
def _layout(secret: bool, n: int) -> tuple[tuple[tuple[str, ...], tuple], int]:
    """The layout of every size-n key file, ((names, widths), length): each
    body line's name + "=", the bit width and digit count (1 for eq<i>.c's
    0 or 1, hex otherwise) of the five lines that repeat, once in a secret
    file and per equation in a public one, and the text's length, found
    without the modulus.  n comes from the file read, so the cache is small;
    it keeps no tuple per line, which would wake the garbage collector."""
    fields = _secret_widths(n) if secret else _equation_widths(n)
    names = [name + "=" for name, _ in fields] if secret else [
        f"eq{i}.{name}=" for i in range(1, n + 1) for name, _ in fields]
    widths = tuple((nbits, 1 if nbits == 1 else 2 * packed_size(nbits)) for _, nbits in fields)
    magic = _SECRET_MAGIC if secret else _PUBLIC_MAGIC
    header = len(f"{magic}\nn={n} m={(n + 1) // 2}\npoly=\n") + 2 * packed_size(n + 1)
    # each line: its name, its digits and a newline; the five widths repeat
    body = sum(map(len, names)) + len(names) // 5 * sum(count + 1 for _, count in widths)
    return (tuple(names), widths), header + body


def encode_key(key) -> str:
    """Serialise a key to its line-oriented text form."""
    if isinstance(key, SecretKey):
        s, t = key.s, key.t
        values = (key.alpha, s.matrix.to_bits(), s.translation,
                  t.matrix.to_bits(), t.translation)
        return _key_text(True, key.field.n, values)
    if isinstance(key, PublicKey):
        return _key_text(False, key.n, itertools.chain.from_iterable(key.fields))
    raise TypeError("expected a SecretKey or PublicKey")


def fingerprint(pk: PublicKey) -> str:
    """The key's public name: the SHA-256 hex digest of its key file."""
    if not isinstance(pk, PublicKey):
        raise TypeError("expected a PublicKey")
    return text_fingerprint(encode_key(pk))


def text_fingerprint(text: str) -> str:
    """The fingerprint of the key in a public key file's text: decode_key
    accepts only encode_key's text, so a text it read is hashed as it is."""
    return hashlib.sha256(text.encode()).hexdigest()


def _header(secret: bool, n: int) -> str:
    """The three header lines of a size-n key file, newlines included."""
    magic = _SECRET_MAGIC if secret else _PUBLIC_MAGIC
    return f"{magic}\nn={n} m={(n + 1) // 2}\npoly={bits_to_hex(find_irreducible(n), n + 1)}\n"


def _key_text(secret: bool, n: int, values) -> str:
    """The file text of a size-n key whose body lines hold values."""
    # one join of all the pieces: a public key's text is n^2 hex digits
    # and more, and joining lines built first would copy it twice
    parts = [_header(secret, n)]
    (names, widths), _ = _layout(secret, n)
    for name, (nbits, _), value in zip(names, itertools.cycle(widths), values):
        parts += (name, str(value) if nbits == 1 else bits_to_hex(value, nbits), "\n")
    return "".join(parts)


def _canonical_values(text: str):
    """(n, values) when text is the public key file encode_key writes for
    the values, else None.  Each check reads the text at the offset the
    layout fixes: the header is the only text built, and each value's
    digits the only part of the text copied."""
    if not text.startswith(_PUBLIC_MAGIC + "\n"):
        return None
    start = len(_PUBLIC_MAGIC) + 1
    try:
        n = int(text[start:text.find("\n", start)].partition(" ")[0].partition("=")[2])
    except ValueError:
        return None
    # every size-n public file holds n^3 / 4 digits and more (its xy
    # lines), so a huge claimed n fails here and builds no layout
    if n < 3 or n % 2 == 0 or n * n > 2 * len(text):
        return None
    (names, widths), length = _layout(False, n)
    if len(text) != length:
        return None
    header = _header(False, n)
    if not text.startswith(header):
        return None
    # the lines at their offsets then end exactly at len(text)
    pos, values = len(header), []
    for name, (nbits, count) in zip(names, itertools.cycle(widths)):
        if not text.startswith(name, pos):
            return None
        start = pos + len(name)
        pos = start + count
        digits = text[start:pos]
        if nbits == 1:
            if digits not in ("0", "1"):
                return None
            value = int(digits)
        else:
            try:
                # unlike bytes.fromhex, a2b_hex skips no whitespace, so
                # data has exactly count / 2 bytes
                data = a2b_hex(digits)
            except ValueError:
                return None
            value = int.from_bytes(data, "little")
            if value >> nbits:
                return None
        if not text.startswith("\n", pos):
            return None
        pos += 1
        values.append(value)
    # a2b_hex accepts the digits A-F, which the canonical form does not,
    # and no line name holds a capital
    if any(text.find(digit, len(header)) >= 0 for digit in "ABCDEF"):
        return None
    return n, values


def _key_of(secret: bool, n: int, values):
    """The key whose body lines hold values, each at its line's width."""
    if not secret:
        # any values of those widths are a key's fields
        fields = tuple(tuple(values[i:i + 5]) for i in range(0, 5 * n, 5))
        return PublicKey._from_fields(n, fields)
    alpha, a1, c1, a2, c2 = values
    try:
        s = AffineMap(BitMatrix.from_bits(a1, n, n), c1)
        t = AffineMap(BitMatrix.from_bits(a2, n, n), c2)
        return SecretKey(Field(n), s, t, alpha)
    except ValueError as exc:
        raise KeyFormatError(f"invalid secret key: {exc}") from exc


def decode_key(text: str):
    """Parse a key file; returns a SecretKey or a PublicKey.

    The text must be exactly what encode_key writes for its key (module
    docstring); anything else, a trace-0 alpha or a singular matrix
    included, raises KeyFormatError.  A public file is read at its offsets
    (_canonical_values); a secret file, and any text that fails there, by
    lines (_decode_lines).
    """
    parsed = _canonical_values(text)
    if parsed is None:
        return _decode_lines(text)
    return _key_of(False, *parsed)


def _decode_lines(text: str):
    """The key of a text read line by line, if the text is _key_text of its
    values, else its KeyFormatError: a value error, then a key invariant,
    then the first line that differs from the canonical text.  n is bounded
    only by the line count, so the widths are read lazily, and no layout is
    built before the values."""
    lines = text.splitlines()
    if not lines:
        raise KeyFormatError("empty key file")
    if lines[0] not in (_SECRET_MAGIC, _PUBLIC_MAGIC):
        raise KeyFormatError("unrecognised key header")
    secret = lines[0] == _SECRET_MAGIC
    kind = "secret" if secret else "public"
    if len(lines) < 3:
        raise KeyFormatError("truncated key file")
    # only n and the values are parsed; field names, the m on line 2, the
    # poly line and number formatting are left to the canonical-form check
    try:
        n = int(lines[1].partition(" ")[0].partition("=")[2])
    except ValueError as exc:
        raise KeyFormatError(f"line 2: malformed dimensions: {exc}") from exc
    if n < 3 or n % 2 == 0:
        raise KeyFormatError("line 2: n must be odd and at least 3")
    # counted before any line is read, so a huge n fails at once
    expected = 3 + (5 if secret else 5 * n)
    if len(lines) != expected:
        raise KeyFormatError(f"{kind} key file has {len(lines)} lines, expected {expected}")

    fields = _secret_widths(n) if secret else _equation_widths(n)
    widths = itertools.cycle([nbits for _, nbits in fields])
    values = []
    for number, (nbits, line) in enumerate(zip(widths, lines[3:]), 4):
        value = line.partition("=")[2]
        try:
            if nbits == 1 and value not in ("0", "1"):
                raise ValueError("constant must be 0 or 1")
            values.append(int(value) if nbits == 1 else hex_to_bits(value, nbits))
        except ValueError as exc:
            raise KeyFormatError(f"line {number}: {exc}") from exc
    key = _key_of(secret, n, values)
    canonical = _key_text(secret, n, values)
    if canonical == text:
        return key
    line = os.path.commonprefix((canonical, text)).count("\n") + 1
    raise KeyFormatError(f"line {line} is not in canonical form")
