import hashlib
import random

import pytest

from ld2.gf2n import (
    Field,
    apply_columns,
    bits_to_hex,
    byte_multiples,
    bytes_to_bits,
    bits_to_bytes,
    clmul_bytes,
    find_irreducible,
    frobenius_tables,
    hex_to_bits,
    is_irreducible,
    poly_gcd,
)
from ld2.cli import MAX_N


# --- independent oracle: irreducibility by trial division ---------------

def _pmod(a, f):
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def _irreducible_by_trial_division(f):
    n = f.bit_length() - 1
    if n < 1:
        return False
    for d in range(2, 1 << (n // 2 + 1)):
        if d.bit_length() - 1 >= 1 and _pmod(f, d) == 0:
            return False
    return True


def test_is_irreducible_matches_trial_division_up_to_degree_10():
    for f in range(4, 1 << 11):
        assert is_irreducible(f) == _irreducible_by_trial_division(f), bin(f)


def test_negative_polynomials_are_rejected():
    for f in (-1, -2, -5, -(1 << 257) - 3):
        with pytest.raises(ValueError):
            is_irreducible(f)
    with pytest.raises(ValueError):
        poly_gcd(6, -5)
    with pytest.raises(ValueError):
        poly_gcd(-6, 5)


def test_find_irreducible_known_small():
    assert find_irreducible(3) == 0b1011  # x^3 + x + 1
    assert find_irreducible(2) == 0b111  # x^2 + x + 1, the only choice


def test_find_irreducible_degree_9_matches_scan_oracle():
    base = (1 << 9) | 1
    expected = next(
        base | (mid << 1)
        for mid in range(1 << 8)
        if _irreducible_by_trial_division(base | (mid << 1))
    )
    assert find_irreducible(9) == expected == 0x203  # x^9 + x + 1


# sha256 of the lines "<n> <modulus in hex>\n" for every odd n in 3..MAX_N
MODULI_SHA256 = "6f95a7b83f77397d52347f7b85588ce9581cdef5bf16157648368c8598386fe9"


def test_find_irreducible_pins_every_supported_modulus():
    text = "".join(f"{n} {find_irreducible(n):x}\n" for n in range(3, MAX_N + 1, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == MODULI_SHA256


def test_find_irreducible_rejects_tiny_degree():
    with pytest.raises(ValueError):
        find_irreducible(1)


# --- field construction --------------------------------------------------

def test_field_rejects_even_or_small_n():
    for n in (1, 2, 4, 10):
        with pytest.raises(ValueError):
            Field(n)


def test_field_equality_and_m():
    assert Field(3).modulus == 0b1011
    assert Field(3) == Field(3)
    assert Field(3) != Field(5)
    assert Field(9).m == 5


# --- arithmetic on the n = 3 toy field -----------------------------------

GAMMA = 0b010
GAMMA2 = 0b100


def test_add_is_xor(f8):
    assert f8.add(0b101, 0b010) == 0b111
    assert f8.add(0b101, 0b111) == GAMMA  # (1 + g^2) + (1 + g + g^2) = g
    for a in range(8):
        assert f8.add(a, a) == 0


def test_mul_known_answers(f8):
    assert f8.mul(GAMMA, GAMMA2) == 0b011  # g^3 = g + 1
    assert f8.mul(GAMMA2, GAMMA2) == 0b110  # g^4 = g^2 + g
    rng = random.Random(1)
    for _ in range(20):
        a = rng.randrange(8)
        assert f8.mul(a, 1) == a


def test_frobenius_known_answers(f8):
    # n = 3, m = 2: the Frobenius map is a -> a^4
    assert f8.frobenius(GAMMA) == 0b110  # g^4 = g^2 + g
    assert f8.frobenius(GAMMA2) == GAMMA  # g^8 = g
    for a in range(8):
        assert f8.frobenius(a) == f8.pow(a, 4)
        assert f8.frobenius(f8.frobenius(a)) == f8.sqr(a)  # 2^(2m) = 2^(n+1)


def test_pow_known_answers(f8):
    assert f8.pow(GAMMA, 7) == 1
    assert f8.pow(0, 5) == 0
    assert f8.pow(0, 0) == 1
    # oracle: repeated multiplication
    alpha = 0b111
    acc = 1
    for _ in range(3):
        acc = f8.mul(acc, alpha)
    assert acc == GAMMA
    assert f8.pow(alpha, 3) == acc


def test_pow_full_group_order_small_fields():
    for n in (3, 5):
        field = Field(n)
        for a in range(1, field.order):
            assert field.pow(a, field.order - 1) == 1


def test_inv_known_answers(f8):
    assert f8.inv(1) == 1
    assert f8.inv(GAMMA) == 0b101  # g * (g^2 + 1) = 1
    with pytest.raises(ZeroDivisionError):
        f8.inv(0)
    rng = random.Random(2)
    for _ in range(50):
        a = rng.randrange(1, 8)
        assert f8.mul(a, f8.inv(a)) == 1
        assert f8.inv(f8.inv(a)) == a


class _CountedField(Field):
    """A Field that counts its mul and inv calls.  inv runs on a plain
    Field, so that the products of its own chain are not counted."""

    __slots__ = ("counts",)

    def __init__(self, n):
        super().__init__(n)
        self.counts = {"mul": 0, "inv": 0}

    def mul(self, a, b):
        self.counts["mul"] += 1
        return super().mul(a, b)

    def inv(self, a):
        self.counts["inv"] += 1
        return Field(self.n).inv(a)


@pytest.mark.parametrize("n", [3, 5, 33, 129])
def test_quotients_take_one_inv_and_4k_minus_3_mul(n):
    # Montgomery's trick: 3(k - 1) products for the inverses, one per
    # numerator, one inv for them all, and nothing for no pairs
    field = _CountedField(n)
    assert field.quotients([]) == []
    assert field.counts == {"mul": 0, "inv": 0}
    rng = random.Random(n)
    plain = Field(n)
    for k in (1, 2, 3, 10):
        pairs = [(rng.getrandbits(n), rng.randrange(1, field.order)) for _ in range(k)]
        field.counts.update(mul=0, inv=0)
        quotients = field.quotients(pairs)
        assert field.counts == {"mul": 4 * k - 3, "inv": 1}
        assert quotients == [plain.mul(r, plain.inv(z)) for r, z in pairs]


def test_trace_known_answers(f8):
    assert f8.trace(1) == 1  # n odd
    assert f8.trace(GAMMA) == 0
    assert f8.trace(0b111) == 1  # the toy fixture's alpha


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trace_linear_and_frobenius_invariant(n):
    field = Field(n)
    traces = [field.trace(a) for a in range(field.order)]
    assert set(traces) <= {0, 1}
    for a in range(field.order):
        assert traces[field.sqr(a)] == traces[a]
        for b in range(field.order):
            assert traces[a ^ b] == traces[a] ^ traces[b]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_trace_one_count(n):
    field = Field(n)
    count = sum(field.trace(a) for a in range(field.order))
    assert count == 1 << (n - 1)


@pytest.mark.parametrize("n", [3, 17, 33])
def test_field_axioms_random_triples(n):
    field = Field(n)
    rng = random.Random(n)
    for _ in range(500):
        a = rng.randrange(field.order)
        b = rng.randrange(field.order)
        c = rng.randrange(field.order)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)
        if a:
            assert field.mul(a, field.inv(a)) == 1


def test_frobenius_is_linear():
    field = Field(9)
    rng = random.Random(3)
    for _ in range(270):
        a = rng.randrange(field.order)
        b = rng.randrange(field.order)
        assert field.frobenius(a ^ b) == field.frobenius(a) ^ field.frobenius(b)


def test_frobenius_columns_agree_with_direct():
    field = Field(9)
    tables = frobenius_tables(field, field.m)
    rng = random.Random(4)
    for _ in range(100):
        a = rng.randrange(field.order)
        assert apply_columns(tables, a) == field.pow(a, 1 << field.m)
        assert field.frobenius(a) == apply_columns(tables, a)


def test_sqr_matches_mul():
    rng = random.Random(5)
    for n in (3, 17, 129, 257):
        field = Field(n)
        for _ in range(200):
            a = rng.randrange(field.order)
            assert field.sqr(a) == field.mul(a, a)


def test_lane_product_known_answer(f8):
    # n = 3: lanes of one byte; g * (g^2, 1, g^2 + g) = (g + 1, g, g^2 + g + 1)
    assert f8.lane_bytes == 1
    lanes = f8.pack_lanes([GAMMA2, 1, 0b110])
    assert f8.fold_lanes(clmul_bytes(byte_multiples(lanes), GAMMA)) == 0x07_02_03


# --- packing and hex ------------------------------------------------------

def test_bit_packing_convention():
    # bit 0 (coordinate 1) lands in byte 0, position 0
    assert bits_to_bytes(1, 9) == b"\x01\x00"
    # bit 8 (coordinate 9) lands in byte 1, position 0
    assert bits_to_bytes(0b100000000, 9) == b"\x00\x01"
    assert bits_to_hex(0b101, 3) == "05"


def test_bit_packing_round_trip():
    rng = random.Random(6)
    for nbits in (3, 9, 17, 33):
        for _ in range(20):
            v = rng.randrange(1 << nbits)
            assert bytes_to_bits(bits_to_bytes(v, nbits), nbits) == v
            assert hex_to_bits(bits_to_hex(v, nbits), nbits) == v


def test_bit_packing_rejects_slack_and_bad_lengths():
    with pytest.raises(ValueError):
        bytes_to_bits(b"\x08", 3)  # slack bit set
    with pytest.raises(ValueError):
        bytes_to_bits(b"\x01\x00", 3)  # wrong length
    with pytest.raises(ValueError):
        hex_to_bits("zz", 3)
    with pytest.raises(ValueError):
        bits_to_bytes(8, 3)

