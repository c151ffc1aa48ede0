import random

import pytest

from ld2.cipher import (
    DecryptionError,
    PaddingError,
    decrypt_block,
    decrypt_candidates,
    decrypt_message,
    encrypt_block,
    encrypt_message,
    pad_message,
    sign,
    unpad_message,
    verify,
)
from ld2.keys import decode_key, encode_key, keygen, relation_residual
from ld2.permutation import CentralMap


# --- block encryption ---------------------------------------------------------

def test_encrypt_toy_known_answer(toy_pk):
    assert encrypt_block(toy_pk, 0b000) == 0b101


def test_encrypt_agrees_with_secret_route(toy_sk, toy_pk):
    # oracle: y = t^-1(g(s(x))) through the central map
    cm = CentralMap(toy_sk.field, toy_sk.alpha)
    t_inverse = toy_sk.t.inverse()
    for x in range(8):
        expected = t_inverse.apply(cm(toy_sk.s.apply(x)))
        assert encrypt_block(toy_pk, x) == expected


def test_encrypt_satisfies_relation(toy_sk, toy_pk):
    for x in range(8):
        assert relation_residual(toy_sk, x, encrypt_block(toy_pk, x)) == 0


def test_encrypt_is_injective(toy_pk):
    images = {encrypt_block(toy_pk, x) for x in range(8)}
    assert len(images) == 8


def test_encrypt_rejects_oversized_block(toy_pk):
    # 8 fits the one byte the window tables read, but indexes past their
    # 8-entry table, so linear_system must reject it before the lookup
    toy_pk.linear_system(0)
    for x in (8, -1):
        with pytest.raises(ValueError, match="block length mismatch"):
            encrypt_block(toy_pk, x)


# --- block decryption ------------------------------------------------------------

def test_decrypt_toy_known_answer(toy_sk):
    assert decrypt_block(toy_sk, 0b101) == 0b000


def test_decrypt_candidates_coincide_when_exponent_base_vanishes(toy_sk):
    # worked example: v = g^2 makes z1 = 0, so both candidates are equal
    x1, x2 = decrypt_candidates(toy_sk, 0b101)
    assert x1 == x2 == 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_round_trip_exhaustive(n):
    sk, pk = keygen(n, seed=0x5EED + n)
    for x in range(1 << n):
        assert decrypt_block(sk, encrypt_block(pk, x)) == x


def test_round_trip_random_n17():
    sk, pk = keygen(17, seed=0x1234)
    rng = random.Random(30)
    for _ in range(200):
        x = rng.randrange(1 << 17)
        assert decrypt_block(sk, encrypt_block(pk, x)) == x


@pytest.mark.parametrize("n", [33, 65])
def test_round_trip_thousand_random_blocks(n):
    sk, pk = keygen(n, seed=0x0B10C5 + n)
    rng = random.Random(n)
    for _ in range(1000):
        x = rng.randrange(1 << n)
        assert decrypt_block(sk, encrypt_block(pk, x)) == x


def test_decrypt_performs_exactly_one_exponentiation(monkeypatch, toy_sk):
    # and exactly one relation residual, the fault check
    import ld2.cipher as cipher_mod
    from ld2.gf2n import Field

    calls = []
    residuals = []
    original = Field.pow

    def counting_pow(self, a, e):
        calls.append(e)
        return original(self, a, e)

    def counting_residual(sk, x, y):
        residuals.append(x)
        return relation_residual(sk, x, y)

    monkeypatch.setattr(Field, "pow", counting_pow)
    monkeypatch.setattr(cipher_mod, "relation_residual", counting_residual)
    for y in range(8):
        calls.clear()
        residuals.clear()
        decrypt_block(toy_sk, y)
        assert calls == [(1 << toy_sk.field.m) - 1]
        assert len(residuals) == 1


def test_decrypt_and_sign_make_no_mul_vec_call(monkeypatch, toy_sk):
    # s, t and s^-1 apply through their window tables; mul_vec is an oracle
    from ld2.linalg import BitMatrix

    calls = []
    original = BitMatrix.mul_vec

    def counting_mul_vec(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(BitMatrix, "mul_vec", counting_mul_vec)
    sk, _ = keygen(33, seed=0x3A)
    for key in (toy_sk, sk):
        for y in range(8):
            decrypt_block(key, y)
            sign(key, y)
    assert calls == []
    toy_sk.t.matrix.mul_vec(0)  # the counter does count
    assert calls == [0]


@pytest.mark.parametrize("n", [3, 5])
def test_candidate_structure(n):
    # exactly one candidate value works for every ciphertext, and it is
    # always the second one
    sk, _ = keygen(n, seed=0xF00 + n)
    for y in range(1 << n):
        x1, x2 = decrypt_candidates(sk, y)
        ok = {x for x in {x1, x2} if relation_residual(sk, x, y) == 0}
        assert len(ok) == 1
        assert relation_residual(sk, x2, y) == 0


def test_decrypt_rejects_oversized_block(toy_sk):
    with pytest.raises(ValueError):
        decrypt_block(toy_sk, 8)


# --- signatures --------------------------------------------------------------------

def test_sign_toy_known_answer(toy_sk, toy_pk):
    assert sign(toy_sk, 0b101) == 0b000
    assert verify(toy_pk, 0b101, 0b000)


def test_sign_verify_random():
    sk, pk = keygen(9, seed=0xD16E57)
    rng = random.Random(31)
    for _ in range(50):
        digest = rng.randrange(1 << 9)
        signature = sign(sk, digest)
        assert verify(pk, digest, signature)
        assert sign(sk, digest) == signature  # deterministic


def test_verify_rejects_bit_flips():
    sk, pk = keygen(9, seed=0xD16E58)
    rng = random.Random(32)
    for _ in range(10):
        digest = rng.randrange(1 << 9)
        signature = sign(sk, digest)
        for bit in range(9):
            assert not verify(pk, digest, signature ^ (1 << bit))
            assert not verify(pk, digest ^ (1 << bit), signature)


def test_verify_matches_encryption(toy_pk):
    for x in range(8):
        for y in range(8):
            assert verify(toy_pk, y, x) == (encrypt_block(toy_pk, x) == y)


def test_verify_rejects_oversized_inputs(toy_pk):
    # with the window tables, which 8 would index past, and without them
    toy_pk.linear_system(0)
    for key in (toy_pk, decode_key(encode_key(toy_pk))):
        for bad in (8, -1):
            with pytest.raises(ValueError, match="block length mismatch"):
                verify(key, bad, 0)
            with pytest.raises(ValueError, match="block length mismatch"):
                verify(key, 0, bad)


# --- padding ------------------------------------------------------------------------

def test_pad_empty_message():
    assert pad_message(b"", 3) == [0b001]


def test_pad_round_trip_random():
    rng = random.Random(33)
    for n in (3, 5, 9, 17):
        for length in range(0, 18):
            data = rng.randbytes(length)
            assert unpad_message(pad_message(data, n), n) == data


def test_pad_aligned_message_gains_one_block():
    # 3 bytes = 24 bits, already a multiple of n = 3
    blocks = pad_message(b"\xff\xff\xff", 3)
    assert len(blocks) == 24 // 3 + 1
    assert blocks[-1] == 0b001


def test_unpad_rejects_all_zero_tail():
    with pytest.raises(PaddingError):
        unpad_message([0, 0], 3)
    with pytest.raises(PaddingError):
        unpad_message([], 3)


def test_unpad_rejects_misaligned_marker():
    # marker at bit 4: 4 bits of "message" is not a whole byte count
    with pytest.raises(PaddingError):
        unpad_message([0b000, 0b010], 3)


# --- message mode --------------------------------------------------------------------

def test_message_round_trip():
    sk, pk = keygen(9, seed=0xABCD)
    rng = random.Random(34)
    for length in (0, 1, 7, 8, 65):
        data = rng.randbytes(length)
        assert decrypt_message(sk, encrypt_message(pk, data)) == data


def test_message_block_count_n3(toy_sk, toy_pk):
    # 8 message bits + 1 padding bit = 9 = 3 blocks of 3 bits = 3 bytes
    ciphertext = encrypt_message(toy_pk, b"\xa5")
    assert len(ciphertext) == 3
    assert decrypt_message(toy_sk, ciphertext) == b"\xa5"


def test_decrypt_message_rejects_bad_framing(toy_sk, toy_pk):
    ciphertext = encrypt_message(toy_pk, b"hi")
    with pytest.raises(ValueError):
        decrypt_message(toy_sk, ciphertext + b"\x00\x00")  # length, then junk block
    with pytest.raises(ValueError):
        decrypt_message(toy_sk, b"")
    with pytest.raises(ValueError):
        decrypt_message(toy_sk, bytes([0x08]) * len(ciphertext))  # slack bit set


def test_every_block_decrypts_under_honest_keys():
    # encryption is a bijection, so no n-bit block is undecryptable
    sk, pk = keygen(5, seed=0x1)
    seen = set()
    for y in range(32):
        x = decrypt_block(sk, y)
        assert encrypt_block(pk, x) == y
        seen.add(x)
    assert len(seen) == 32


def test_decrypt_error_branch(monkeypatch, toy_sk):
    # unreachable with honest keys; force the defensive path
    import ld2.cipher as cipher_mod

    monkeypatch.setattr(cipher_mod, "relation_residual", lambda sk, x, y: 1)
    with pytest.raises(DecryptionError):
        decrypt_block(toy_sk, 0)


@pytest.mark.parametrize("k", range(3))
def test_decrypt_message_errors_name_the_block(monkeypatch, k):
    import ld2.cipher as cipher_mod

    sk, pk = keygen(9, seed=0xB10C)
    # 25 padded bits: three 9-bit blocks of 2 bytes each
    ciphertext = bytearray(encrypt_message(pk, b"abc"))
    assert len(ciphertext) == 6
    blocks = [int.from_bytes(ciphertext[i : i + 2], "little") for i in (0, 2, 4)]
    assert len(set(blocks)) == 3

    slack = bytearray(ciphertext)
    slack[2 * k + 1] |= 0x80
    with pytest.raises(ValueError, match=rf"^block {k}: nonzero slack bits"):
        decrypt_message(sk, bytes(slack))

    # a fault in block k only: its residual check fails
    residual = cipher_mod.relation_residual
    monkeypatch.setattr(
        cipher_mod, "relation_residual",
        lambda sk, x, y: 1 if y == blocks[k] else residual(sk, x, y),
    )
    with pytest.raises(DecryptionError, match=rf"^block {k}: decrypted block fails"):
        decrypt_message(sk, bytes(ciphertext))


def test_decrypt_message_padding_errors_name_the_block():
    sk, pk = keygen(9, seed=0xB10C)

    def ciphertext(*blocks):
        return b"".join(encrypt_block(pk, x).to_bytes(2, "little") for x in blocks)

    # no 1 bit at all: the marker belongs in the last block
    with pytest.raises(PaddingError, match=r"^block 2: no padding marker found$"):
        decrypt_message(sk, ciphertext(0, 0, 0))
    # the last 1 bit is stream bit 9 + 4, in block 1, after 13 message bits
    with pytest.raises(PaddingError, match=r"^block 1: message length is not a whole"):
        decrypt_message(sk, ciphertext(0b101, 1 << 4, 0))
    # unpad_message names the same blocks
    with pytest.raises(PaddingError, match=r"^block 1: no padding marker"):
        unpad_message([0, 0], 3)
    with pytest.raises(PaddingError, match=r"^block 0: no padding marker"):
        unpad_message([], 3)
