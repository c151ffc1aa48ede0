import random

import pytest

from ld2.gf2n import bits_to_hex
from ld2.linalg import (
    AffineMap,
    BitMatrix,
    Prng,
    SingularMatrixError,
    invert_matrix,
    random_invertible,
    rank,
    solve_linear,
)

from conftest import TOY_A1, TOY_A2, TOY_C1, TOY_C2


def _toy_s():
    return AffineMap(BitMatrix(TOY_A1, 3), TOY_C1)


def _toy_t():
    return AffineMap(BitMatrix(TOY_A2, 3), TOY_C2)


# --- BitMatrix basics -----------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ValueError):
        BitMatrix((), 3)
    with pytest.raises(ValueError):
        BitMatrix((0b1000,), 3)  # row does not fit 3 columns
    with pytest.raises(ValueError):
        BitMatrix((1,), 0)


def test_identity_and_mul_vec():
    ident = BitMatrix.identity(3)
    for x in range(8):
        assert ident.mul_vec(x) == x
    with pytest.raises(ValueError):
        ident.mul_vec(8)


def test_transpose_and_mul_mat():
    m = BitMatrix(TOY_A1, 3)
    assert m.transpose().transpose() == m
    assert m.mul_mat(BitMatrix.identity(3)) == m


def test_row_major_bit_packing():
    m = BitMatrix(TOY_A1, 3)
    packed = m.to_bits()
    assert packed == 0b100110011
    assert BitMatrix.from_bits(packed, 3, 3) == m
    assert bits_to_hex(packed, 9) == "3301"


# --- solving and inversion ------------------------------------------------

def test_solve_identity():
    assert solve_linear(BitMatrix.identity(3), 0b101) == 0b101


def test_solve_two_by_two():
    # y1 + y2 = 1, y2 = 0  ->  (1, 0)
    m = BitMatrix((0b11, 0b10), 2)
    assert solve_linear(m, 0b01) == 0b01


def test_solve_round_trip_random():
    rng = random.Random(10)
    prng = Prng(11)
    for _ in range(10_000):
        n = rng.choice([2, 3, 5, 8])
        m = random_invertible(n, prng)
        y = rng.randrange(1 << n)
        assert solve_linear(m, m.mul_vec(y)) == y


def test_solve_singular_raises():
    m = BitMatrix((0b11, 0b11), 2)
    with pytest.raises(SingularMatrixError):
        solve_linear(m, 0b01)
    with pytest.raises(SingularMatrixError):
        invert_matrix(m)


def test_invert_identity_and_toy_matrix():
    ident = BitMatrix.identity(3)
    assert invert_matrix(ident) == ident
    a1 = BitMatrix(TOY_A1, 3)
    assert invert_matrix(a1).mul_mat(a1) == ident
    assert a1.mul_mat(invert_matrix(a1)) == ident


def test_invert_involution_random():
    prng = Prng(12)
    for _ in range(20):
        m = random_invertible(6, prng)
        assert invert_matrix(invert_matrix(m)) == m
        assert invert_matrix(m).mul_mat(m) == BitMatrix.identity(6)


# --- affine maps ------------------------------------------------------------

def test_affine_toy_known_answers():
    s = _toy_s()
    t = _toy_t()
    assert s.apply(0b000) == 0b101  # the translation c1
    assert t.apply(0b000) == 0b010  # the translation c2
    assert s.apply(0b111) == 0b001  # row-wise xor of the fixture map
    assert s.inverse().apply(0b101) == 0b000
    assert t.inverse().apply(0b010) == 0b000


def test_affine_round_trip_exhaustive_small():
    prng = Prng(13)
    for n in (2, 3, 5, 7):
        m = random_invertible(n, prng)
        f = AffineMap(m, prng.bits(n))
        g = f.inverse()
        for x in range(1 << n):
            assert g.apply(f.apply(x)) == x
            assert f.apply(g.apply(x)) == x


def test_affine_rejects_bad_input():
    # x fits the bytes the window tables read but not the images: apply must
    # reject it before the lookup, which would index past a table
    s = _toy_s()
    for f, x in ((s, 8), (s.inverse(), 8), (s, -1), (AffineMap(BitMatrix.identity(5), 0), 32)):
        with pytest.raises(ValueError, match="vector length mismatch"):
            f.apply(x)
    singular = BitMatrix((0b11, 0b11), 2)
    assert AffineMap(singular, 0).apply(0b01) == 0b11  # no elimination
    with pytest.raises(SingularMatrixError):
        AffineMap(singular, 0).inverse()


# --- the deterministic generator -------------------------------------------

def test_prng_matches_reference_recurrence():
    mask = (1 << 64) - 1

    def reference(seed, count):
        s = seed
        out = []
        for _ in range(count):
            s ^= s >> 12
            s = (s ^ (s << 25)) & mask
            s ^= s >> 27
            out.append((s * 0x2545F4914F6CDD1D) & mask)
        return out

    words = reference(12345, 3)
    prng = Prng(12345)
    assert [prng.next_word() for _ in range(3)] == words

    # bits are consumed most-significant first; the first bit lands in bit 0
    prng = Prng(12345)
    got = prng.bits(64)
    expected = sum(((words[0] >> (63 - i)) & 1) << i for i in range(64))
    assert got == expected


def test_prng_bit_stream_is_contiguous():
    a = Prng(99)
    b = Prng(99)
    whole = a.bits(100)
    pieces = b.bits(37) | (b.bits(63) << 37)
    assert whole == pieces


def test_prng_seed_validation():
    with pytest.raises(ValueError):
        Prng(-1)
    with pytest.raises(ValueError):
        Prng(1 << 64)
    # seed zero is remapped, not a fixed point
    assert Prng(0).next_word() != 0


def test_random_invertible_deterministic_and_invertible():
    m1 = random_invertible(5, Prng(7))
    m2 = random_invertible(5, Prng(7))
    assert m1 == m2
    assert rank(m1) == 5
    invert_matrix(m1)  # must not raise


def test_random_invertible_n1():
    assert random_invertible(1, Prng(42)) == BitMatrix((1,), 1)
    with pytest.raises(ValueError):
        random_invertible(0, Prng(42))
