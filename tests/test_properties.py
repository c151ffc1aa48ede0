"""Property-based tests of invariants the acceptance criteria check only at
a few sizes: the Frobenius map, the Itoh-Tsujii chain in Field.pow against
square and multiply, Field.trace against the sum of squares it replaced,
every carry-less product of gf2n against shift and xor bit by bit
(test_carry_less_products_match_shift_and_xor), the lane-packed product
through shared byte multiples against Field.mul lane by lane
(test_lane_products_match_mul_lane_by_lane), Field.quotients against
one Field.inv per pair (test_quotients_match_mul_by_inv_pair_by_pair),
Ben-Or's irreducibility test against Rabin's on random polynomials, on
Ben-Or's longest reducible case and on every canonical modulus
(test_is_irreducible_agrees_with_rabin,
test_every_canonical_modulus_passes_rabin), the window tables and the bit
transpose of linalg against per-bit loops
(test_window_tables_match_the_images_bit_by_bit,
test_bit_columns_match_a_bitwise_transpose), GF(2) transpose, rank, solving
and inversion on any shape, AffineMap.apply's window tables against
BitMatrix.mul_vec, an equation's fields against its terms, the system
linear_system folds from the fields and the lane-major copy cut from them
(test_linear_system_and_holds_match_evaluate), PublicKey.holds on the file
fields and through the tables of the copy
(test_holds_finds_the_one_failing_equation_with_and_without_the_copy),
the relation residual's two products against the three it replaced
(test_residual_matches_three_products), public-key derivation (against
the residual, its linear terms against residual differences in
test_linear_terms_are_residual_differences, and against one Field.mul
per coefficient with a bitwise transpose in
test_derive_public_key_matches_per_coefficient_reference), encryption
solvability, encryption by field inversion on certified keys against
elimination (test_inversion_matches_elimination), a message's decryption by
one field inversion against decrypt_block on each block
(test_decrypt_message_matches_decrypt_block), message framing, key-file round trips
(test_key_files_round_trip, equations included), the text written from
any public field values of the right widths being the encoding of the key
it decodes to, which is what decode_key's canonical check relies on
(test_public_field_values_are_the_key_fields), and the strictness of the
key-file codec."""

import contextlib
import dataclasses
import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import decrypt_per_block, outcome
from ld2.cipher import decrypt_message, encrypt_message
from ld2.cli import MAX_N
from ld2.gf2n import Field, _clmul, _spread, apply_columns, byte_multiples, clmul_bytes
from ld2.gf2n import packed_size
from ld2.gf2n import find_irreducible, frobenius_tables, is_irreducible
from ld2.keys import (
    KeyFormatError,
    PublicKey,
    QuadraticEquation,
    _GATE,
    _PRODUCT_FROM,
    _certify_after,
    _chunk_bytes,
    _equation_widths,
    _key_text,
    _lane_major,
    _layout,
    _residual_uv,
    decode_key,
    derive_public_key,
    encode_key,
    keygen,
    relation_residual,
)
from ld2.linalg import (
    AffineMap,
    BitMatrix,
    Prng,
    SingularMatrixError,
    apply_windows,
    bit_column_bytes,
    bit_columns,
    invert_matrix,
    nibble_windows,
    random_invertible,
    rank,
    solve_linear,
    window_tables,
)


@settings(deadline=None)
@given(st.integers(1, 64), st.data())
def test_frobenius_is_the_power_two_to_the_m(half, data):
    # odd n in 3..129
    field = Field(2 * half + 1)
    exponent = 1 << field.m
    tables = frobenius_tables(field, field.m)
    for j in range(field.n):
        # the image of the basis element g^j: bit j % 8 of byte window j // 8
        assert tables[j >> 3][1 << (j & 7)] == field.pow(1 << j, exponent)
    a = data.draw(st.integers(0, field.order - 1))
    assert field.frobenius(a) == field.pow(a, exponent)


def _square_and_multiply(field, a, e):
    """a^e by plain square and multiply over the unreduced exponent."""
    acc = 1
    while e:
        if e & 1:
            acc = field.mul(acc, a)
        a = field.mul(a, a)
        e >>= 1
    return acc


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 128), st.data())
def test_pow_chain_matches_square_and_multiply(half, data):
    # odd n in 3..257; e = 2^k - 1 takes the chain, except k = n (e = 0)
    field = Field(2 * half + 1)
    n = field.n
    k = data.draw(st.integers(1, 2 * n), label="k")
    exponents = [(1 << j) - 1 for j in (1, field.m, n - 1, n, k)]
    exponents.append(data.draw(st.integers(0, 1 << n + 1), label="e"))
    tables = frobenius_tables(field, k)
    for a in (0, 1, data.draw(st.integers(2, field.order - 1), label="a")):
        for e in exponents:
            assert field.pow(a, e) == _square_and_multiply(field, a, e)
        assert apply_columns(tables, a) == field.pow(a, 1 << k)


def _shift_and_xor(a, b):
    """The carry-less product of a and b, one bit of b at a time."""
    acc = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            acc ^= a << i
    return acc


@st.composite
def clmul_factors(draw):
    """A field element, or n of them packed one per lane of ceil(2n / 8)
    bytes as derive_public_key packs S, F(S) and T, for odd n in 3..257;
    the bits come from a drawn seed."""
    n = 2 * draw(st.integers(1, 128)) + 1
    width = draw(st.sampled_from((n, 8 * ((2 * n + 7) // 8) * n)))
    return random.Random(draw(st.integers(0, 2**32 - 1))).getrandbits(width)


# 520 bits, every byte 0x9d: both nibbles nonzero and unequal, so a digit
# dropped or swapped changes the product
_FACTOR = int("9d" * 65, 16)


# b up to one lane at n = 257; a = 0, b = 0, b = 1, b < 16 (one digit), and
# b = 2^(8k) - 1 and 2^(8k) (a full top byte, and a top byte of one bit)
@settings(deadline=None, max_examples=30)
@given(clmul_factors(), st.integers(0, (1 << 520) - 1))
@example(0, (1 << 257) - 1)
@example(_FACTOR, 0)
@example(_FACTOR, 1)
@example(_FACTOR, 0b1011)
@example(_FACTOR, (1 << 64) - 1)
@example(_FACTOR, 1 << 64)
def test_carry_less_products_match_shift_and_xor(a, b):
    expected = _shift_and_xor(a, b)
    assert _clmul(a, b) == expected
    assert clmul_bytes(byte_multiples(a), b) == expected
    assert _spread(a) == _shift_and_xor(a, a)


@settings(deadline=None)
@given(st.sampled_from([3, 5, 33, 129]), st.data())
def test_quotients_match_mul_by_inv_pair_by_pair(n, data):
    field = Field(n)
    element, unit = st.integers(0, field.order - 1), st.integers(1, field.order - 1)
    pairs = data.draw(st.lists(st.tuples(element, unit), max_size=8), label="pairs")
    assert field.quotients(pairs) == [field.mul(r, field.inv(z)) for r, z in pairs]


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 128), st.data())
def test_lane_products_match_mul_lane_by_lane(half, data):
    # odd n in 3..257; lanes of 0 and 2^n - 1 (the top lane) around random ones
    field = Field(2 * half + 1)
    n = field.n
    top = field.order - 1
    middle = data.draw(st.lists(st.integers(0, top), max_size=n - 2), label="lanes")
    elements = [0, *middle, top]
    multiples = byte_multiples(field.pack_lanes(elements))
    for a in (0, 1, data.draw(st.integers(2, top), label="a")):
        # derive_public_key's lane products: shared byte multiples, one fold
        expected = field.pack_lanes(field.mul(a, e) for e in elements)
        assert field.fold_lanes(clmul_bytes(multiples, a)) == expected


def _poly_mod(a, f):
    d = f.bit_length()
    while a.bit_length() >= d:
        a ^= f << (a.bit_length() - d)
    return a


def _rabin_irreducible(f):
    """Rabin's test (Rabin 1980), the oracle for Ben-Or's in is_irreducible:
    f of degree n >= 1 is irreducible iff x^(2^n) = x mod f and
    gcd(x^(2^(n/p)) - x, f) = 1 for every prime p dividing n.  It squares
    through the binary digits and shares no code with gf2n."""
    n = f.bit_length() - 1
    if n < 1:
        return False
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    checkpoints = {n // p for p in primes}
    x = _poly_mod(2, f)
    t = x
    for i in range(1, n + 1):
        t = _poly_mod(int("0".join(f"{t:b}"), 2), f)
        if i in checkpoints:
            a, b = f, t ^ x
            while b:
                a, b = b, _poly_mod(a, b)
            if a != 1:
                return False
    return t == x


def _irreducible_from(degree, start):
    """The first polynomial of the degree from start on (cyclically) that
    is_irreducible accepts, which Rabin's test must accept too."""
    for k in range(64 * degree):
        f = 1 << degree | (start + k) % (1 << degree)
        if is_irreducible(f):
            assert _rabin_irreducible(f), hex(f)
            return f
    raise AssertionError(f"no irreducible polynomial of degree {degree} found")


# g * h with deg g = floor(n/2) and deg h = ceil(n/2) is Ben-Or's longest
# reducible case: no factor shows before i = floor(n/2); g^2 shows at deg g
@settings(deadline=None)
@given(st.integers(2, 257), st.data())
def test_is_irreducible_agrees_with_rabin(n, data):
    def draw_low(degree, label):
        return data.draw(st.integers(0, (1 << degree) - 1), label=label)

    f = 1 << n | draw_low(n, "f")
    assert is_irreducible(f) == _rabin_irreducible(f), hex(f)
    g = _irreducible_from(n // 2, draw_low(n // 2, "g"))
    h = _irreducible_from(n - n // 2, draw_low(n - n // 2, "h"))
    for reducible in (_shift_and_xor(g, h), _shift_and_xor(g, g)):
        assert not is_irreducible(reducible), hex(reducible)
        assert not _rabin_irreducible(reducible), hex(reducible)


def test_every_canonical_modulus_passes_rabin():
    for n in range(3, MAX_N + 1, 2):
        f = find_irreducible(n)
        assert is_irreducible(f) and _rabin_irreducible(f), n


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8, square=False):
    """Any shape up to the bounds; a drawn column mask makes zero columns
    (and with them zero rows and low rank) common."""
    nrows = draw(st.integers(1, max_rows))
    cols = nrows if square else draw(st.integers(1, max_cols))
    full = (1 << cols) - 1
    keep = draw(st.just(full) | st.integers(0, full))
    row = st.integers(0, full).map(lambda r: r & keep)
    return BitMatrix(tuple(draw(st.lists(row, min_size=nrows, max_size=nrows))), cols)


def _reference_transpose(m):
    """Entry (i, j) moved to (j, i) bit by bit."""
    rows = tuple(
        sum(((m.rows[i] >> j) & 1) << i for i in range(m.nrows))
        for j in range(m.cols)
    )
    return BitMatrix(rows, m.nrows)


def _span_size(m):
    """Number of distinct xors of subsets of the rows, by brute force."""
    span = {0}
    for row in m.rows:
        span |= {v ^ row for v in span}
    return len(span)


@given(bit_matrices(max_rows=40, max_cols=40))
@example(BitMatrix((0b101,), 3))
@example(BitMatrix((1, 0, 1, 1), 1))
@example(BitMatrix((1 << 15, 0xFF00, 1 << 8, 1), 16))
def test_transpose_matches_bitwise_reference(m):
    assert m.transpose() == _reference_transpose(m)


def _reference_rank(m):
    """Rank by plain Gaussian elimination, one column at a time."""
    rows = list(m.rows)
    r = 0
    for col in range(m.cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> col & 1), None)
        if pivot is not None:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            rows = rows[: r + 1] + [row ^ rows[r] if row >> col & 1 else row for row in rows[r + 1 :]]
            r += 1
    return r


# the elimination takes k = 1 column per block below 16 columns, 2 from 16
# and 3 from 32, so shapes up to 40 columns meet partial blocks; examples:
# a column that loses its only candidates to the block's pivots (bit 38
# once 39 is cleared), tall and wide full-rank shapes, a pivotless column
# 17 between pivots at 18 and 16
@given(bit_matrices(max_rows=10, max_cols=40))
@example(BitMatrix((0, 0, 0), 4))
@example(BitMatrix((0b10, 0b10, 0), 2))
@example(BitMatrix((3 << 38 | 1, 3 << 38 | 2, 1 << 37 | 4, 3), 40))
@example(BitMatrix(tuple(1 << i for i in range(16)) + ((1 << 16) - 1,), 16))
@example(BitMatrix(tuple(0b101 << 7 * i | 1 << 30 - i for i in range(5)), 33))
@example(BitMatrix((1 << 18 | 1, 1 << 16 | 2, 1 << 18 | 1 << 16, 1 << 15), 19))
def test_rank_is_log_of_row_span(m):
    assert 1 << rank(m) == _span_size(m)
    assert rank(m) == rank(m.transpose()) == _reference_rank(m)


# singular matrices up to 40 x 40; the example's column 18 has no pivot
# after column 19 is cleared, inside the top block of k = 2
@given(bit_matrices(max_rows=40, square=True), st.integers(0, (1 << 40) - 1))
@example(BitMatrix((0b011, 0b101, 0b110), 3), 0)
@example(BitMatrix((3 << 18,) * 2 + tuple(1 << i for i in range(18)), 20), 5)
def test_solve_and_invert_fail_exactly_on_singular(m, b):
    n = m.cols
    b &= (1 << n) - 1
    if _reference_rank(m) < n:
        with pytest.raises(SingularMatrixError):
            solve_linear(m, b)
        with pytest.raises(SingularMatrixError):
            invert_matrix(m)
    else:
        assert m.mul_vec(solve_linear(m, b)) == b
        assert invert_matrix(m).mul_mat(m) == BitMatrix.identity(n)


@pytest.mark.parametrize("n", [129, 257])
def test_solve_and_invert_large_against_products(n):
    prng = Prng(n)
    rng = random.Random(n)
    identity = BitMatrix.identity(n)
    for m in (random_invertible(n, prng), random_invertible(n, prng)):
        for _ in range(3):
            b = rng.getrandbits(n)
            assert m.mul_vec(solve_linear(m, b)) == b
        inverse = invert_matrix(m)
        assert inverse.mul_mat(m) == identity and m.mul_mat(inverse) == identity
    rows = list(random_invertible(n, prng).rows)
    rows[n // 2] = rows[1] ^ rows[n - 1]
    singular = BitMatrix(rows, n)
    assert rank(singular) == n - 1
    with pytest.raises(SingularMatrixError):
        solve_linear(singular, 1)
    with pytest.raises(SingularMatrixError):
        invert_matrix(singular)


@st.composite
def invertible_matrices(draw, max_n):
    n = draw(st.integers(1, max_n))
    return random_invertible(n, Prng(draw(st.integers(0, (1 << 64) - 1))))


def _check_affine(m, c, x):
    """apply against mul_vec, the columns read back from the window tables
    against the transpose, and inverse() against apply when A is
    invertible; at x = 0, x all ones and the given x."""
    f = AffineMap(m, c)
    n = m.cols
    assert f.columns == list(m.transpose().rows)
    xs = (0, (1 << n) - 1, x)
    for v in xs:
        assert f.apply(v) == m.mul_vec(v) ^ c
    if rank(m) == n:
        g = f.inverse()
        for v in xs:
            assert g.apply(f.apply(v)) == v


@given(
    bit_matrices(max_rows=40, square=True) | invertible_matrices(40),
    st.integers(0, (1 << 40) - 1),
    st.integers(0, (1 << 40) - 1),
)
@example(BitMatrix.identity(1), 1, 1)
@example(BitMatrix.identity(4), 0b1010, 0b0110)
@example(BitMatrix((0b11, 0b11), 2), 0, 0b01)
def test_affine_apply_matches_mul_vec(m, c, x):
    # n = 1..40, so n is mostly not a multiple of the 4-bit window or the byte
    mask = (1 << m.cols) - 1
    _check_affine(m, c & mask, x & mask)


@pytest.mark.parametrize("n", [129, 257])
def test_affine_apply_matches_mul_vec_large(n):
    prng = Prng(n)
    rng = random.Random(n)
    singular = BitMatrix(tuple(rng.randrange(1 << n) for _ in range(n - 1)) + (0,), n)
    for m in (random_invertible(n, prng), random_invertible(n, prng), singular):
        _check_affine(m, rng.randrange(1 << n), rng.randrange(1 << n))


def _image_of(images, x):
    """The xor of the images that the set bits of x select, bit by bit."""
    acc = 0
    for j, image in enumerate(images):
        if x >> j & 1:
            acc ^= image
    return acc


# 1..40 images, mostly not a multiple of 4 or 8; 1..4, 9..12, ... of them
# make an odd count of nibble tables, so apply_windows reads the (0,) pad
@given(
    st.lists(st.integers(0, (1 << 70) - 1), min_size=1, max_size=40),
    st.integers(1, 8),
    st.integers(0, (1 << 40) - 1),
    st.integers(0, (1 << 70) - 1),
)
@example([1, 2, 4, 8, 16], 4, 0b10011, 0)
@example([3] * 8, 8, 0xA5, 1)
def test_window_tables_match_the_images_bit_by_bit(images, width, x, acc):
    count = len(images)
    tables = window_tables(images, width)
    assert len(tables) == -(-count // width)
    for w, table in enumerate(tables):
        part = images[w * width:(w + 1) * width]
        assert table == tuple(_image_of(part, v) for v in range(1 << len(part)))
    windows = nibble_windows(images)
    assert len(windows) == -(-count // 8)
    if -(-count // 4) % 2:
        assert windows[-1][1] == (0,)
    # x = 0, all ones, only the top bit, and the drawn x
    for v in (0, (1 << count) - 1, 1 << count - 1, x & (1 << count) - 1):
        assert apply_windows(windows, v, acc) == acc ^ _image_of(images, v)


@st.composite
def record_sets(draw):
    """(stride, records, count): strides up to 65, lane_bytes at n = 257,
    record counts both multiples of 8 and not, and count mostly below
    8 * stride."""
    stride = draw(st.integers(1, 65))
    records = draw(st.lists(st.integers(0, (1 << 8 * stride) - 1), min_size=1, max_size=40))
    return stride, records, draw(st.integers(1, 8 * stride))


def _random_records(stride, count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(8 * stride) for _ in range(count)]


@settings(deadline=None)
@given(record_sets())
# derivation's strides at n = 129 and 257, with 8k + 1 records and one
# partial byte column
@example((33, _random_records(33, 17, 1), 129))
@example((65, _random_records(65, 33, 2), 257))
def test_bit_columns_match_a_bitwise_transpose(case):
    stride, records, count = case
    blob = b"".join(record.to_bytes(stride, "little") for record in records)
    expected = [
        sum((record >> i & 1) << r for r, record in enumerate(records)) for i in range(count)
    ]
    assert bit_columns(blob, stride, count) == expected
    size = (len(records) + 7) // 8
    assert bit_column_bytes(blob, stride, count) == [e.to_bytes(size, "big") for e in expected]


def _trace_by_squaring(field, a):
    """a + a^2 + a^4 + ... + a^(2^(n-1)), one squaring per term."""
    acc = t = a
    for _ in range(field.n - 1):
        t = field.sqr(t)
        acc ^= t
    return acc


@pytest.mark.parametrize("n", [3, 5, 7, 33, 65, 129, 257])
@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_trace_matches_the_sum_of_squares(n, data):
    field = Field(n)
    basis = [1 << j for j in range(n)]
    drawn = data.draw(st.lists(st.integers(0, field.order - 1), min_size=1, max_size=8))
    for a in basis + drawn:
        assert field.trace(a) == _trace_by_squaring(field, a)


def _widths(n):
    """The bit widths of an equation's xx, xy, xl, yl and c fields."""
    return [width for _, width in _equation_widths(n)]


def _ones(n):
    """The equation with every term set: each field all ones."""
    return QuadraticEquation(n, *((1 << width) - 1 for width in _widths(n)))


@st.composite
def equations(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 9))
    return QuadraticEquation(n, *(draw(st.integers(0, (1 << w) - 1)) for w in _widths(n)))


def _random_fields(rng, n, fill="mixed"):
    """The fields of n equations, each field zero, all ones or random, or
    every field all ones."""
    return [
        tuple((1 << w) - 1 if fill == "ones" else rng.choice((0, (1 << w) - 1, rng.getrandbits(w)))
              for w in _widths(n))
        for _ in range(n)
    ]


def _reference_value(eq, x, y):
    """Equation value summed term by term from its 1-based terms."""
    def bit(v, i):
        return v >> (i - 1) & 1

    xx, xy, xs, ys, value = eq.terms()
    for j, k in xx:
        value ^= bit(x, j) & bit(x, k)
    for j, k in xy:
        value ^= bit(x, j) & bit(y, k)
    for j in xs:
        value ^= bit(x, j)
    for k in ys:
        value ^= bit(y, k)
    return value


@given(equations())
@example(QuadraticEquation(9, 0, 0, 0, 0, 0))
@example(_ones(9))
@example(_ones(1))
def test_terms_round_trip(eq):
    assert QuadraticEquation.from_terms(eq.n, *eq.terms()) == eq


@given(equations(), st.integers(0, (1 << 9) - 1), st.integers(0, (1 << 9) - 1))
@example(QuadraticEquation(9, 0, 0, 0, 0, 0), 0x1FF, 0x1FF)
@example(_ones(9), 0x1FF, 0x1FF)
@example(_ones(9), 0x155, 0x0AA)
def test_evaluate_matches_terms(eq, x, y):
    low = (1 << eq.n) - 1
    assert eq.evaluate(x & low, y & low) == _reference_value(eq, x & low, y & low)


@settings(deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 11, 13, 31, 33, 65, 127]), st.integers(0, (1 << 64) - 1),
       st.sampled_from(["mixed", "ones"]))
@example(65, 7, "ones")
@example(127, 7, "ones")
def test_linear_system_and_holds_match_evaluate(n, seed, fill):
    # linear_system folds the rows of xy from the fields; _lane_major
    # slices row j of xx from bit j*n - j(j+1)/2 and of xy from bit j*n;
    # with n odd, from n = 9 on, these start at every bit of a byte, and at
    # n = 65 and 127 a chunk is many bytes long.  All-ones xx fields fail
    # if a row's chunk is not masked (no certified key has all-ones xy)
    rng = random.Random(seed)
    fields = _random_fields(rng, n, fill)
    x, y = rng.getrandbits(n), rng.getrandbits(n)
    # the gate's copy, cut from the first min(_GATE, n) equations' fields
    # alone, is the whole copy cut to its first chunks
    gate = min(_GATE, n)
    cut = (1 << 8 * _chunk_bytes(n) * gate) - 1
    assert _lane_major(n, fields[:gate]) == tuple(lane & cut for lane in _lane_major(n, fields))
    # the same xx, xl and c under the xy and yl of a generated key, which
    # are all the certificate reads: a key it certifies, where the random
    # fields give one it refuses (all but a few of them)
    certified = [(xx, key[1], xl, key[3], c)
                 for (xx, _, xl, _, c), key in zip(fields, _public_key(n).fields)]
    for key_fields in (fields, certified):
        pk = PublicKey(n, [QuadraticEquation(n, *f) for f in key_fields])
        values = [eq.evaluate(x, y) for eq in pk.equations]
        # holds evaluates every equation on the fields until the K-th
        # block, and after it on a refused key; a certified key builds
        # verification's tables at its first holds and reads them
        assert pk.holds(x, y) == (not any(values))
        matrix, rhs = pk.linear_system(x)
        for i, row in enumerate(matrix.rows):
            assert ((row & y).bit_count() ^ rhs >> i) & 1 == values[i]
        assert pk._inversion is None
        # random fields may give singular systems: solve counts the blocks
        # before it solves them
        with contextlib.suppress(SingularMatrixError):
            pk.solve([x] * _certify_after(n))
        assert not pk._inversion or pk._inversion.gate is None
        assert pk.holds(x, y) == (not any(values))
    assert pk._inversion and pk._inversion.gate is not None


@settings(deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 11, 13, 31, 33, 65, _PRODUCT_FROM - 2, _PRODUCT_FROM, 129]),
       st.integers(0, (1 << 64) - 1), st.data())
def test_holds_finds_the_one_failing_equation_with_and_without_the_copy(n, seed, data):
    # random fields whose constants make every equation vanish at (x, y),
    # then at most one constant flipped: inside the gate, which its tables
    # see, or past it, where only the whole lane-major copy (below
    # _PRODUCT_FROM) or the field product (from there) can; both with
    # equal weight (at n = 3 and 5 the gate covers every equation)
    import ld2.keys as keys_mod

    rng = random.Random(seed)
    x, y = rng.getrandbits(n), rng.getrandbits(n)
    fields = _random_fields(rng, n)
    gate = min(_GATE, n)
    where = data.draw(st.sampled_from(["none", "gate", "past"][: 2 + (n > gate)]), label="where")
    failing = None
    if where != "none":
        low, high = (0, gate - 1) if where == "gate" else (gate, n - 1)
        failing = data.draw(st.integers(low, high), label="failing")

    def key(key_fields):
        equations = []
        for *terms, _ in key_fields:
            eq = QuadraticEquation(n, *terms, 0)
            equations.append(dataclasses.replace(eq, c=eq.evaluate(x, y)))
        if failing is not None:
            flipped = equations[failing]
            equations[failing] = dataclasses.replace(flipped, c=1 - flipped.c)
        return PublicKey(n, equations)

    # the random fields give a key the certificate refuses (all but about
    # one in 400 at n = 3, and fewer above), which holds reads on its
    # fields before the K-th block and after it.  The xy and yl of a
    # generated key, which are all the certificate reads, under the same
    # xx and xl give a key it certifies, which holds reads on its fields,
    # then from the K-th block through its gate and lane tables or its
    # gate and the field product
    generated = _public_key(n).fields
    twin = [(xx, gen[1], xl, gen[3], c) for (xx, _, xl, _, c), gen in zip(fields, generated)]
    for pk in (key(fields), key(twin)):
        for blocks in (0, _certify_after(n)):
            with contextlib.suppress(SingularMatrixError):
                pk.solve([x] * blocks)
            with mock.patch.object(keys_mod, "_vanish_on_fields",
                                   wraps=keys_mod._vanish_on_fields) as on_fields:
                assert pk.holds(x, y) == (failing is None)
            assert on_fields.call_count == (not pk._inversion)
    assert pk._inversion


@pytest.mark.parametrize("n", [129, 257])
def test_linear_system_matches_evaluate_on_real_keys(n):
    pk = keygen(n, seed=0x1A4E + n)[1]
    rng = random.Random(n)
    for _ in range(3):
        x = rng.getrandbits(n)
        matrix, rhs = pk.linear_system(x)
        for y in (0, rng.getrandbits(n)):
            assert matrix.mul_vec(y) ^ rhs == sum(
                eq.evaluate(x, y) << i for i, eq in enumerate(pk.equations)
            )


@functools.lru_cache(maxsize=None)
def _public_key(n):
    return keygen(n, seed=0x9E0 + n)[1]


@settings(deadline=None)
@given(st.integers(1, 16), st.data())
def test_encryption_system_solves_to_a_valid_ciphertext(half, data):
    pk = _public_key(2 * half + 1)
    x = data.draw(st.integers(0, (1 << pk.n) - 1))
    assert pk.holds(x, solve_linear(*pk.linear_system(x)))


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 64), st.integers(0, (1 << 64) - 1),
       st.lists(st.integers(0, (1 << 129) - 1), max_size=6))
@example(64, 7, [(1 << 129) - 2, 1 << 128])
def test_inversion_matches_elimination(half, seed, blocks):
    # every generated key passes the certificate, and then P (r / z(x))
    # solves its system at x, alone and in a batch
    n = 2 * half + 1
    pk = keygen(n, seed)[1]
    pk.solve([0] * _certify_after(n))
    assert pk._inversion
    top = (1 << n) - 1
    xs = [x & top for x in blocks] + [0, 1, top]
    expected = [solve_linear(*pk.linear_system(x)) for x in xs]
    assert pk.solve(xs) == expected
    assert [pk.solve([x])[0] for x in xs] == expected


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 15), st.integers(0, (1 << 64) - 1), st.data())
def test_derived_equations_match_residual(half, seed, data):
    # odd n in 7..31, between the exhaustive sizes and the golden ones
    n = 2 * half + 1
    sk, pk = keygen(n, seed)
    for _ in range(8):
        x = data.draw(st.integers(0, (1 << n) - 1))
        y = data.draw(st.integers(0, (1 << n) - 1))
        residual = relation_residual(sk, x, y)
        for i, eq in enumerate(pk.equations):
            assert eq.evaluate(x, y) == (residual >> i) & 1


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 128), st.integers(0, (1 << 64) - 1),
       st.lists(st.integers(0, 256), max_size=6))
@example(128, 7, [128])
@example(1, 0, [])
def test_linear_terms_are_residual_differences(half, seed, picks):
    # odd n in 3..257: derive_public_key takes d and c from lane products
    # by bilinearity; bit j of xl over the n equations is the residual
    # difference d_j = R(u0 + s_j, v0) + e, bit k of yl is c_k = R(u0, v0 +
    # t_k) + e, and the c fields are e = R(u0, v0)
    n = 2 * half + 1
    sk, pk = keygen(n, seed)
    u0, v0 = sk.s.translation, sk.t.translation
    s_cols, t_cols = sk.s.columns, sk.t.columns
    e = _residual_uv(sk, u0, v0)
    assert sum(c << i for i, (*_, c) in enumerate(pk.fields)) == e
    for j in {0, n - 1, *(p % n for p in picks)}:
        xl = sum((f[2] >> j & 1) << i for i, f in enumerate(pk.fields))
        yl = sum((f[3] >> j & 1) << i for i, f in enumerate(pk.fields))
        assert xl == _residual_uv(sk, u0 ^ s_cols[j], v0) ^ e
        assert yl == _residual_uv(sk, u0, v0 ^ t_cols[j]) ^ e


@functools.lru_cache(maxsize=None)
def _secret_key(n):
    return keygen(n, seed=0x5E0 + n)[0]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 128), st.data())
@example(2, None)
@example(128, None)
def test_residual_matches_three_products(half, data):
    # odd n in 3..257: _residual_uv's two products, w(u) (u + v) + u^2 +
    # F(u) + F(alpha) with w(u) = F(u) + u + alpha, against the grouping
    # into three products that it replaced
    n = 2 * half + 1
    sk = _secret_key(n)
    field, alpha = sk.field, sk.alpha
    top = (1 << n) - 1
    pairs = [(0, 0), (1, 0), (0, 1), (alpha, alpha), (top, top)]
    if data is not None:
        pairs += [(data.draw(st.integers(0, top)), data.draw(st.integers(0, top)))
                  for _ in range(8)]
    for u, v in pairs:
        uf = field.frobenius(u)
        three = (field.mul(uf, u ^ v) ^ field.mul(u, v ^ alpha) ^ uf
                 ^ field.mul(v, alpha) ^ field.frobenius(alpha))
        assert _residual_uv(sk, u, v) == three


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 64), st.data())
def test_decrypt_message_matches_decrypt_block(half, data):
    # odd n in 3..129: random aligned ciphertexts, some with slack bits in
    # one block, give the outcome of decrypt_block on each block and then
    # unpad_message: the same plaintext, or the same error type and message
    # (slack bits, padding, and the block each names)
    n = 2 * half + 1
    sk = _secret_key(n)
    size = packed_size(n)
    blocks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    if blocks and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(blocks) - 1))
        blocks[i] |= data.draw(st.integers(1, (1 << 8 * size - n) - 1)) << n
    ciphertext = b"".join(y.to_bytes(size, "little") for y in blocks)
    assert outcome(decrypt_message, sk, ciphertext) == outcome(decrypt_per_block, sk, ciphertext)


def _reference_public_key(sk):
    """The public key from one Field.mul per quadratic coefficient, the
    linear terms from relation_residual at unit vectors, and a bitwise
    transpose of the coefficient vectors, laid out in key-file order, into
    the fields."""
    field = sk.field
    n = field.n
    s_cols = _reference_transpose(sk.s.matrix).rows
    t_cols = _reference_transpose(sk.t.matrix).rows
    s_frob = [field.frobenius(col) for col in s_cols]
    base = relation_residual(sk, 0, 0)
    vectors = (
        [field.mul(s_frob[j], s_cols[k]) ^ field.mul(s_frob[k], s_cols[j])
         for j in range(n) for k in range(j + 1, n)],
        [field.mul(s_frob[j] ^ s_cols[j], t_cols[k]) for j in range(n) for k in range(n)],
        [relation_residual(sk, 1 << j, 0) ^ base for j in range(n)],
        [relation_residual(sk, 0, 1 << j) ^ base for j in range(n)],
        [base],
    )
    fields = [
        [sum((c >> i & 1) << pos for pos, c in enumerate(vector)) for vector in vectors]
        for i in range(n)
    ]
    return PublicKey(n, (QuadraticEquation(n, *f) for f in fields))


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 32), st.integers(0, (1 << 64) - 1))
def test_derive_public_key_matches_per_coefficient_reference(half, seed):
    # odd n in 3..65
    sk, _ = keygen(2 * half + 1, seed)
    assert derive_public_key(sk) == _reference_public_key(sk)


_MESSAGE_N = 9


@functools.lru_cache(maxsize=None)
def _message_keys():
    return keygen(_MESSAGE_N, seed=0x3E55)


# lengths that fill whole blocks, so padding adds one block of its own
_aligned = st.integers(0, 6).flatmap(
    lambda k: st.binary(min_size=k * _MESSAGE_N, max_size=k * _MESSAGE_N)
)


@given(st.binary(max_size=80) | _aligned)
@example(b"")
@example(bytes(_MESSAGE_N))
def test_messages_round_trip(data):
    sk, pk = _message_keys()
    assert decrypt_message(sk, encrypt_message(pk, data)) == data


@given(st.binary(max_size=40))
@example(b"")
def test_decrypt_message_rejects_only_with_value_errors(data):
    # every failure is a ValueError subclass: framing, padding or the
    # decryption fault check
    try:
        decrypt_message(_message_keys()[0], data)
    except ValueError:
        pass


@settings(deadline=None, max_examples=15)
@given(st.integers(1, 64), st.integers(0, (1 << 64) - 1))
def test_key_files_round_trip(half, seed):
    # odd n in 3..129; a decoded public key has the same equations
    sk, pk = keygen(2 * half + 1, seed)
    assert decode_key(encode_key(sk)) == sk
    decoded = decode_key(encode_key(pk))
    assert decoded == pk
    assert decoded.equations == pk.equations


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 32), st.integers(0, (1 << 64) - 1))
def test_public_field_values_are_the_key_fields(half, seed):
    # odd n in 3..65; each line's value is zero, all ones or random, at
    # exactly its width, so eq<i>.c is 0 or 1
    n = 2 * half + 1
    rng = random.Random(seed)
    names, widths = _layout(False, n)[0]
    values = [
        rng.choice((0, (1 << nbits) - 1, rng.getrandbits(nbits)))
        for _, (nbits, _) in zip(names, itertools.cycle(widths))
    ]
    text = _key_text(False, n, values)
    assert encode_key(decode_key(text)) == text


@functools.lru_cache(maxsize=None)
def _key_file(kind):
    sk, pk = keygen(5, seed=0x6D75)
    return encode_key(sk if kind == "secret" else pk).encode()


def _decodes_faithfully(kind, data):
    """A changed key file fails with KeyFormatError, or it is the canonical
    encoding of the key it decodes to, which is the original key only when
    the file is unchanged."""
    text = data.decode("latin-1")
    try:
        key = decode_key(text)
    except KeyFormatError:
        return
    assert encode_key(key) == text
    assert (key == decode_key(_key_file(kind).decode())) == (data == _key_file(kind))


@given(st.sampled_from(["secret", "public"]), st.data())
def test_single_byte_mutations(kind, data):
    original = _key_file(kind)
    pos = data.draw(st.integers(0, len(original) - 1))
    byte = data.draw(st.integers(0, 255))
    _decodes_faithfully(kind, original[:pos] + bytes([byte]) + original[pos + 1 :])


@given(st.sampled_from(["secret", "public"]), st.data())
def test_truncations(kind, data):
    original = _key_file(kind)
    _decodes_faithfully(kind, original[: data.draw(st.integers(0, len(original) - 1))])
