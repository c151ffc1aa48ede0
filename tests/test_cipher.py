import hashlib
import itertools
import operator
import random

import pytest

from ld2.cipher import (
    DecryptionError,
    MalformedKeyError,
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
from conftest import decrypt_per_block, lane_tables, outcome, verification_tables
from ld2.gf2n import Field, packed_size
from ld2.keys import _GATE, _PRODUCT_FROM, PublicKey, QuadraticEquation, _certify_after
from ld2.keys import decode_key, encode_key, keygen, relation_residual
from ld2.linalg import Prng, SingularMatrixError, random_invertible, solve_linear
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
    # on the fields and, past the K-th block, with the tables: 8 fits the
    # one byte the window tables read, but indexes past their 8-entry
    # table, so it must be rejected before the lookup
    certified = decode_key(encode_key(toy_pk))
    certified.solve([0] * _certify_after(3))
    assert certified._inversion
    for key in (decode_key(encode_key(toy_pk)), certified):
        for x in (8, -1):
            with pytest.raises(ValueError, match="block length mismatch"):
                encrypt_block(key, x)
            with pytest.raises(ValueError, match="block length mismatch"):
                key.linear_system(x)


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
    tabled = decode_key(encode_key(toy_pk))
    tabled.solve([0] * _certify_after(3))
    assert tabled._inversion
    for key in (tabled, decode_key(encode_key(toy_pk))):
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


def _big_int_pad(data, n):
    """pad_message as one int over the whole message: the reference."""
    if n < 1:
        raise ValueError("block size must be positive")
    stream = int.from_bytes(data, "little")
    total = 8 * len(data)
    stream |= 1 << total
    total += 1
    nblocks = -(-total // n)
    mask = (1 << n) - 1
    return [(stream >> (i * n)) & mask for i in range(nblocks)]


def _big_int_unpad(blocks, n):
    """unpad_message as one int over the whole list: the reference."""
    stream = 0
    for i, block in enumerate(blocks):
        if not 0 <= block < 1 << n:
            raise ValueError("block length mismatch")
        stream |= block << (i * n)
    if stream == 0:
        raise PaddingError(f"block {max(len(blocks), 1) - 1}: no padding marker found")
    total = stream.bit_length() - 1
    if total % 8:
        raise PaddingError(
            f"block {total // n}: message length is not a whole number of bytes"
        )
    stream ^= 1 << total
    return stream.to_bytes(total // 8, "little")


@pytest.mark.parametrize("n", [3, 5, 7, 9, 17, 65, 129])
def test_framing_matches_the_big_int_reference(n):
    # every length up to 3n + 2 bytes, where the groups of n bytes start
    # and end, and random lengths up to 4 KiB; then corrupted block lists:
    # no marker, a marker off a byte boundary, an out-of-range block and
    # the empty list, each with the reference's outcome
    rng = random.Random(0xF4A + n)
    lengths = [*range(3 * n + 3), *(rng.randrange(4097) for _ in range(12)), 4096]
    for length in lengths:
        data = rng.randbytes(length)
        blocks = pad_message(data, n)
        assert blocks == _big_int_pad(data, n)
        assert unpad_message(blocks, n) == data
        assert unpad_message(iter(blocks), n) == data
        corrupted = [[0] * len(blocks), []]
        for _ in range(4):
            # move the last 1 bit: clear the marker, or set a bit past it
            flipped = list(blocks)
            bit = rng.randrange(8 * length, len(blocks) * n)
            flipped[bit // n] ^= 1 << bit % n
            corrupted.append(flipped)
            wide = list(blocks)
            wide[rng.randrange(len(wide))] = rng.choice([1 << n, -1])
            corrupted.append(wide)
        corrupted.append([rng.getrandbits(n) for _ in range(rng.randrange(1, 20))])
        for case in corrupted:
            assert outcome(unpad_message, case, n) == outcome(_big_int_unpad, case, n)
    for length in range(0, 3 * n + 3, max(1, n // 4)):
        # a marker off a byte boundary in each position of its byte
        for shift in range(1, 8):
            blocks = _big_int_pad(bytes(length), n)
            bit = 8 * length + shift
            blocks += [0] * (bit // n + 1 - len(blocks))
            blocks[bit // n] |= 1 << bit % n
            assert outcome(unpad_message, blocks, n) == outcome(_big_int_unpad, blocks, n)
            assert "whole number of bytes" in outcome(unpad_message, blocks, n)


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


class _FirstApplyWrong:
    """An affine map whose first apply is off by one bit: a fault in
    decryption's first t(y)."""

    def __init__(self, t):
        self.t = t
        self.calls = 0

    def apply(self, y):
        self.calls += 1
        return self.t.apply(y) ^ (self.calls == 1)


def test_a_fault_in_the_first_t_of_y_is_caught():
    # R(u, v) is linear in v with coefficient w(u) != 0, so a wrong first
    # v = t(y) gives an x with R(s(x), v) = 0: only the residual's own t(y)
    # catches it, in a message and in a block
    sk, pk = keygen(9, seed=0xFA17)
    ciphertext = encrypt_message(pk, b"abc")
    sk.t = _FirstApplyWrong(sk.t)
    with pytest.raises(DecryptionError, match=r"^block 0: decrypted block fails"):
        decrypt_message(sk, ciphertext)
    sk.t.calls = 0
    with pytest.raises(DecryptionError, match=r"^decrypted block fails"):
        decrypt_block(sk, int.from_bytes(ciphertext[:2], "little"))
    assert sk.t.calls == 2


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


# --- a message's decryption by one field inversion ----------------------------

def _z1(sk, y):
    """The base z1 = alpha + 1 + v + F(v), v = t(y), of block y's
    exponentiation."""
    v = sk.t.apply(y)
    return sk.alpha ^ 1 ^ v ^ sk.field.frobenius(v)


def _vanishing_blocks(sk):
    """The ciphertexts y = t^-1(v) of the two v with z1 = 0: the roots of
    v + F(v) = alpha + 1, two since F + id has kernel {0, 1}."""
    field = sk.field
    roots = [v for v in range(field.order) if v ^ field.frobenius(v) == sk.alpha ^ 1]
    assert len(roots) == 2 and roots[0] ^ roots[1] == 1
    t_inverse = sk.t.inverse()
    blocks = [t_inverse.apply(v) for v in roots]
    assert [_z1(sk, y) for y in blocks] == [0, 0]
    return blocks


def _packed(n, blocks) -> bytes:
    return b"".join(y.to_bytes(packed_size(n), "little") for y in blocks)


def _counted(counts, name, fn):
    """fn, counting its calls in counts[name]."""
    def call(*args):
        counts[name] += 1
        return fn(*args)
    return call


def test_decrypt_message_takes_one_inversion(monkeypatch):
    # one Field.inv per message and none when every z1 is 0, no Field.pow
    # but that inv's own, and one relation residual per block
    import ld2.cipher as cipher_mod

    sk, pk = keygen(9, seed=0xB10C)
    roots = _vanishing_blocks(sk)
    rng = random.Random(28)
    messages = [encrypt_message(pk, rng.randbytes(k)) for k in (0, 1, 18, 250)]
    other = int.from_bytes(messages[1][:2], "little")
    messages += [_packed(9, blocks) for blocks in (
        roots[:1], roots, roots * 4, roots + [other], [roots[0], other, roots[1]])]
    counts = {}
    monkeypatch.setattr(Field, "inv", _counted(counts, "inv", Field.inv))
    monkeypatch.setattr(Field, "pow", _counted(counts, "pow", Field.pow))
    monkeypatch.setattr(cipher_mod, "relation_residual",
                        _counted(counts, "residual", relation_residual))
    seen = set()
    for data in messages:
        blocks = [int.from_bytes(data[i : i + 2], "little") for i in range(0, len(data), 2)]
        inversions = int(any(_z1(sk, y) for y in blocks))
        seen.add(inversions)
        counts.update(inv=0, pow=0, residual=0)
        outcome(decrypt_message, sk, data)
        assert counts == {"inv": inversions, "pow": inversions, "residual": len(blocks)}
    assert seen == {0, 1}


def test_encrypt_message_takes_one_inversion(monkeypatch):
    # on a certified key one Field.inv per message, no Field.pow but that
    # inv's own, and no elimination; below K and on a key the certificate
    # refused, one linear_system and one solve_linear per block and no
    # Field.inv
    import ld2.keys as keys_mod

    n = 9
    k = _certify_after(n)
    _, certified = keygen(n, seed=0xE1C)
    # equation 0 plus equation 1 in place of equation 0: the same solutions,
    # and a key the certificate refuses
    fields = list(certified.fields)
    fields[0] = tuple(a ^ b for a, b in zip(fields[0], fields[1]))
    refused = PublicKey._from_fields(n, tuple(fields))
    for key in (certified, refused):
        encrypt_message(key, bytes(n * k // 8))  # K blocks
    assert certified._inversion and refused._inversion is False
    counts = {}
    monkeypatch.setattr(Field, "inv", _counted(counts, "inv", Field.inv))
    monkeypatch.setattr(Field, "pow", _counted(counts, "pow", Field.pow))
    monkeypatch.setattr(PublicKey, "linear_system",
                        _counted(counts, "system", PublicKey.linear_system))
    monkeypatch.setattr(keys_mod, "solve_linear", _counted(counts, "solve", solve_linear))
    rng = random.Random(0xE1C)
    for length in (0, 1, 3, 8, 250):
        data = rng.randbytes(length)
        blocks = len(pad_message(data, n))
        counts.update(inv=0, pow=0, system=0, solve=0)
        ciphertext = encrypt_message(certified, data)
        assert counts == {"inv": 1, "pow": 1, "system": 0, "solve": 0}
        keys = [refused]
        if blocks < k:
            keys.append(PublicKey(n, certified.equations))  # a fresh key, below K
        for key in keys:
            counts.update(inv=0, pow=0, system=0, solve=0)
            assert encrypt_message(key, data) == ciphertext
            assert counts == {"inv": 0, "pow": 0, "system": blocks, "solve": blocks}
            assert key._inversion is (False if key is refused else None)


@pytest.mark.parametrize("n", [5, 9, 13])
def test_decrypt_message_where_z1_vanishes(n):
    # the two blocks with z1 = 0, alone, together and inside messages,
    # against decrypt_block on each block
    sk, pk = keygen(n, seed=0x21 + n)
    roots = _vanishing_blocks(sk)
    size = packed_size(n)
    rng = random.Random(n)
    cases = [_packed(n, [y]) for y in roots] + [_packed(n, roots), _packed(n, roots[::-1])]
    aligned = []
    for length in (0, 3, 40):
        data = encrypt_message(pk, rng.randbytes(length))
        for at in (0, len(data) // size // 2 * size, len(data)):
            cases += [data[:at] + _packed(n, [y]) + data[at:] for y in roots]
        # eight blocks in front shift the stream by whole bytes
        aligned.append(_packed(n, roots * 4) + data)
    outcomes = [outcome(decrypt_message, sk, data) for data in cases + aligned]
    assert outcomes == [outcome(decrypt_per_block, sk, data) for data in cases + aligned]
    assert all(o.startswith("b") for o in outcomes[len(cases):])


def test_decrypt_message_on_every_one_and_two_block_ciphertext_n5():
    sk, _ = keygen(5, seed=0x26)
    cases = [bytes([y]) for y in range(256)]
    cases += [bytes([a, b]) for a in range(32) for b in range(32)]
    outcomes = [outcome(decrypt_message, sk, data) for data in cases]
    assert outcomes == [outcome(decrypt_per_block, sk, data) for data in cases]


@pytest.mark.parametrize("n, pinned", [(3, "030701060503030101"), (5, "0c081b021e")])
def test_decrypt_message_on_every_one_byte_edit(n, pinned):
    # every single-byte substitution, deletion and truncation of one pinned
    # ciphertext: the outcome of decrypt_block on each block, and never a
    # traceback
    sk, pk = keygen(n, seed=0x5EE)
    data = encrypt_message(pk, b"ld2")
    assert data.hex() == pinned
    edits = [data[:i] for i in range(len(data))]
    edits += [data[:i] + data[i + 1 :] for i in range(len(data))]
    edits += [data[:i] + bytes([b]) + data[i + 1 :]
              for i in range(len(data)) for b in range(256) if b != data[i]]
    outcomes = [outcome(decrypt_message, sk, e) for e in edits]
    assert outcomes == [outcome(decrypt_per_block, sk, e) for e in edits]
    kinds = {o.partition(":")[0] for o in outcomes if not o.startswith("b")}
    assert kinds == {"ValueError", "PaddingError"}
    assert any(o.startswith("b") for o in outcomes)


# --- keys that are not honest ---------------------------------------------------

# the 32 five-bit blocks 0..31 in order; padding adds a 33rd block, 1
_ALL_BLOCKS_N5 = sum(x << 5 * x for x in range(32)).to_bytes(20, "little")


def _tampered_keys():
    """Each n = 5 public key with one xy or yl bit of one equation flipped
    (150 keys), as a function that builds a fresh copy of it."""
    _, pk = keygen(5, seed=0x7A3)
    for i in range(5):
        for field, width in ((1, 25), (3, 5)):  # xy, yl
            for bit in range(width):
                fields = [list(f) for f in pk.fields]
                fields[i][field] ^= 1 << bit
                yield lambda fields=fields: PublicKey(
                    5, [QuadraticEquation(5, *f) for f in fields])


def test_tampered_keys_encrypt_or_fail_as_pinned():
    # per key, every block one at a time, then all of them as one message
    # on a fresh copy; each outcome is a ciphertext or an error type and
    # message, and the digest of them all was taken when every block was
    # solved by elimination
    digest = hashlib.sha256()
    errors = 0
    for make in _tampered_keys():
        key = make()
        outcomes = [outcome(encrypt_block, key, x) for x in range(32)]
        assert key._inversion is False  # every such key fails the certificate
        outcomes.append(outcome(encrypt_message, make(), _ALL_BLOCKS_N5))
        errors += sum(o.startswith("MalformedKeyError: ") for o in outcomes)
        digest.update("\n".join(outcomes).encode() + b"\n")
    assert errors == 1506
    assert digest.hexdigest() == (
        "b3dcfa1c07b8680d1a799cc6a2bdaed62514e9cd0a5a1300e7c299bc9984c25b")


def _eliminated(key, x) -> str:
    """The outcome of solving the system at x by elimination, as _outcome
    records it."""
    try:
        return repr(solve_linear(*key.linear_system(x)))
    except SingularMatrixError:
        return "MalformedKeyError: public key yields a singular system"


def _crafted_key(n, seed):
    """A key that passes the certificate, with z(e_0) = 0: M(0) random and
    invertible, z_0 = 1 and B_j = Mult(z_j) M(0), so that bit i of z_j m_k
    (m_k column k of M(0)) is bit j n + k of equation i's xy.  xx, xl and
    c are random."""
    field, prng = Field(n), Prng(seed)
    m0 = random_invertible(n, prng)
    z = [1] + [prng.bits(n) for _ in range(n - 1)]
    products = [field.mul(zj, mk) for zj in z for mk in m0.transpose().rows]
    return PublicKey(n, [
        QuadraticEquation(
            n, prng.bits(n * (n - 1) // 2),
            sum((p >> i & 1) << bit for bit, p in enumerate(products)),
            prng.bits(n), m0.rows[i], prng.bits(1))
        for i in range(n)])


def test_crafted_certified_key_fails_where_elimination_does():
    n = 9
    singular = r"^public key yields a singular system$"
    # block 1 = e_0: z = 1 + z_0 = 0, and M(1) = 0
    key = _crafted_key(n, 0xC0DE)
    with pytest.raises(MalformedKeyError, match=singular):
        encrypt_block(key, 1)
    assert key._inversion is None  # one block: elimination
    key = _crafted_key(n, 0xC0DE)
    # 72 message bits are 8 whole blocks, and the padding block is 1: the
    # message certifies the key first, then finds the zero z
    with pytest.raises(MalformedKeyError, match=singular):
        encrypt_message(key, bytes(range(9)))
    assert key._inversion
    outcomes = [outcome(encrypt_block, key, x) for x in range(1 << n)]
    assert outcomes == [_eliminated(key, x) for x in range(1 << n)]
    assert outcomes[1].startswith("MalformedKeyError: ")


@pytest.mark.parametrize("n", [3, 5, 9, 33])
def test_fields_give_the_system_at_x(n, monkeypatch):
    # linear_system reads the fields: bit i of the right-hand side is
    # equation i at (x, 0), and bit k of row i its change from y = 0 to y
    # = e_k, on keys that pass the certificate, that it refuses and whose
    # systems are singular; no block below K builds the lane tables
    import ld2.keys as keys_mod

    def forbidden(*args):
        raise AssertionError("only holds on a certified key builds the lane tables")

    monkeypatch.setattr(keys_mod, "_lane_major", forbidden)
    rng = random.Random(0xF1E + n)
    top = (1 << n) - 1
    xs = [0, 1, top, *(rng.getrandbits(n) for _ in range(12))]
    widths = [width for _, width in keys_mod._equation_widths(n)]
    keys = [
        keygen(n, seed=0xF1E + n)[1],
        PublicKey._from_fields(n, (tuple((1 << w) - 1 for w in widths),) * n),
        PublicKey._from_fields(n, tuple(tuple(rng.getrandbits(w) for w in widths)
                                        for _ in range(n))),
        _crafted_key(n, 0xF1E + n),
    ]
    for key in keys:
        equations = key.equations
        for x in xs:
            matrix, rhs = key.linear_system(x)
            for i, eq in enumerate(equations):
                value = eq.evaluate(x, 0)
                assert rhs >> i & 1 == value
                assert matrix.rows[i] == sum(
                    (eq.evaluate(x, 1 << k) ^ value) << k for k in range(n))
        blocks = list(itertools.islice(itertools.cycle(xs), _certify_after(n) - 1))
        assert [outcome(encrypt_block, key, x) for x in blocks] == [
            _eliminated(key, x) for x in blocks]
        assert key._inversion is None


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 33])
def test_plane_tables_give_the_system_at_x(n):
    # a certified key's fraction(x), read off its plane tables and its z
    # map, is linear_system's right-hand side at x and M(x) p0, on an
    # honest key and on a crafted one (whose z vanishes at e_0); at n = 7
    # and 15 the bytes of x hold n + 1 planes, and the select mask is not
    # shifted
    rng = random.Random(0x91A + n)
    top = (1 << n) - 1
    xs = range(1 << n) if n < 10 else [0, 1, top, *(rng.getrandbits(n) for _ in range(60))]
    for key in (keygen(n, seed=0x91A + n)[1], _crafted_key(n, 0xC0DE + n)):
        key.solve([0] * _certify_after(n))  # z(0) = 1 on every key
        inversion = key._inversion
        assert inversion
        p0 = inversion.p.apply(1)
        for x in xs:
            matrix, rhs = key.linear_system(x)
            assert inversion.fraction(x) == (rhs, matrix.mul_vec(p0))


def test_plane_tables_fit_their_measured_size():
    # the plane tables of an n = 129 key, by tracemalloc, in either lane
    # order: 0.59 - 0.60 MB, as plane 0 sits on top of every lane
    import tracemalloc

    import ld2.keys as keys_mod
    from ld2.linalg import AffineMap, BitMatrix, invert_matrix

    n = 129
    fields = keygen(n, seed=0x9A7E)[1].fields
    p0 = AffineMap(invert_matrix(BitMatrix([f[3] for f in fields], n)), 0).apply(1)
    z = keys_mod._z_columns(n, fields, p0)
    tracemalloc.start()
    tables = keys_mod._plane_tables(n, fields, z)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert len(tables) == (n + 7) // 8
    assert held <= 0.65e6


@pytest.mark.parametrize("n", [3, 5, 9, 33])
def test_certificate_reads_z_off_the_fields(n):
    # bit i of z_j is the parity of row j of equation i's xy under p, here
    # bit by bit, on keys that pass the certificate, all-ones keys and
    # random-field keys, with p at 1, all ones and random
    import ld2.keys as keys_mod

    rng = random.Random(0x2E0 + n)
    widths = [width for _, width in keys_mod._equation_widths(n)]
    keys = [
        keygen(n, seed=0x2E0 + n)[1],
        _crafted_key(n, 0x2E1 + n),
        PublicKey._from_fields(n, (tuple((1 << w) - 1 for w in widths),) * n),
        PublicKey._from_fields(n, tuple(tuple(rng.getrandbits(w) for w in widths)
                                        for _ in range(n))),
    ]
    for key in keys:
        for p in (1, (1 << n) - 1, rng.getrandbits(n)):
            rows = []
            for _, xy, _, _, _ in key.fields:
                bits = [[xy >> j * n + k & p >> k & 1 for k in range(n)] for j in range(n)]
                rows.append(sum((sum(row) & 1) << j for j, row in enumerate(bits)))
            # row i above holds bit i of every z_j: transposed, z_j is column j
            expected = [sum((row >> j & 1) << i for i, row in enumerate(rows))
                        for j in range(n)]
            assert keys_mod._z_columns(n, key.fields, p) == expected


@pytest.mark.parametrize("n", [3, 9, 33])
def test_z_columns_match_the_linear_systems(n):
    # z_j = B_j p0 = (M(e_j) + M(0)) p0, with M(x) from linear_system and
    # BitMatrix.mul_vec, on an honest key, a crafted key and a random-field
    # key, at p0 = M(0)^-1 e0 where M(0) is invertible and at random p
    import ld2.keys as keys_mod
    from ld2.linalg import AffineMap, invert_matrix

    rng = random.Random(0x2C0 + n)
    widths = [width for _, width in keys_mod._equation_widths(n)]
    keys = [
        keygen(n, seed=0x2C0 + n)[1],
        _crafted_key(n, 0x2C1 + n),
        PublicKey._from_fields(n, tuple(tuple(rng.getrandbits(w) for w in widths)
                                        for _ in range(n))),
    ]
    for key in keys:
        m0 = key.linear_system(0)[0]
        ps = [rng.getrandbits(n), 1]
        try:
            ps.append(AffineMap(invert_matrix(m0), 0).apply(1))
        except SingularMatrixError:
            assert key is keys[2]
        for p in ps:
            expected = [key.linear_system(1 << j)[0].mul_vec(p) ^ m0.mul_vec(p)
                        for j in range(n)]
            assert keys_mod._z_columns(n, key.fields, p) == expected


def test_a_key_is_certified_once_at_the_kth_block(monkeypatch):
    # each call logs its count of equations: calls of _certify, builds of
    # the plane tables and walks of the fields for the lane tables, which
    # the first holds on a certified key builds, after its range check:
    # one walk of all n below _PRODUCT_FROM, for the gate's and the whole
    # tables, and of the gate's _GATE from there
    import ld2.keys as keys_mod

    calls, builds, lanes = [], [], []
    for name, log in (("_certify", calls), ("_plane_tables", builds), ("_lane_major", lanes)):
        def counted(n, fields, *args, original=getattr(keys_mod, name), log=log):
            log.append(len(fields))
            return original(n, fields, *args)

        monkeypatch.setattr(keys_mod, name, counted)
    for n in (33, _PRODUCT_FROM):
        for log in (calls, builds, lanes):
            log.clear()
        k = _certify_after(n)
        held = [n if n < _PRODUCT_FROM else _GATE]  # the walk of one holds
        sk, pk = keygen(n, seed=0xCE27)
        digest = 0x5EED
        signature = sign(sk, digest)

        def verified(key):
            return verify(key, digest, signature), verify(key, digest, signature ^ 1)

        prng = Prng(0xB10C)
        blocks = [prng.bits(n) for _ in range(3 * k)]
        expected = [_eliminated(pk, x) for x in blocks]
        # encrypt_block counts one block a call: K - 1 by elimination, which
        # builds no tables of any kind, nor does holds below K
        assert [repr(encrypt_block(pk, x)) for x in blocks[:k - 1]] == expected[:k - 1]
        assert verified(pk) == (True, False)
        assert calls == builds == lanes == [] and pk._inversion is None
        # the K-th call certifies the key and builds its plane tables once,
        # and every later block is inverted; encryption builds no lane tables
        assert repr(encrypt_block(pk, blocks[k - 1])) == expected[k - 1]
        assert calls == builds == [n] and lanes == [] and pk._inversion
        assert lane_tables(pk) == (None, None)
        assert [repr(encrypt_block(pk, x)) for x in blocks[k:]] == expected[k:]
        assert calls == builds == [n] and lanes == []
        # an out-of-range holds on the certified key raises and builds nothing
        for x, y in ((1 << n, 0), (0, 1 << n), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="^block length mismatch$"):
                pk.holds(x, y)
        assert lanes == [] and lane_tables(pk) == (None, None)
        # its first holds builds verification's tables of its fields, once
        assert verified(pk) == (True, False)
        tables = lane_tables(pk)
        assert lanes == held and tables == verification_tables(n, pk.fields)
        assert verified(pk) == (True, False)
        assert all(map(operator.is_, lane_tables(pk), tables))
        message = bytes(range(200)) * (n // 33)
        assert decrypt_message(keygen(n, seed=0xCE27)[0], encrypt_message(pk, message)) == message
        assert calls == builds == [n] and lanes == held
        # a message of K blocks or more certifies a fresh key first; a key
        # that only encrypts never builds verification's tables
        _, fresh = keygen(n, seed=0xCE27)
        for _ in range(3):
            assert encrypt_message(fresh, message) == encrypt_message(pk, message)
        assert calls == builds == [n, n] and lanes == held and fresh._inversion
        assert lane_tables(fresh) == (None, None)
        # a key that fails the certificate is checked once, and keeps
        # elimination
        fields = [list(f) for f in pk.fields]
        fields[0][1] ^= 1 << 40  # one xy bit
        tampered = PublicKey(n, [QuadraticEquation(n, *f) for f in fields])
        outcomes = [outcome(encrypt_block, tampered, x) for x in blocks]
        assert outcomes == [_eliminated(tampered, x) for x in blocks]
        outcome(encrypt_message, tampered, message)
        # and builds nothing, verifying included: no lane and no plane tables
        verify(tampered, digest, signature)
        assert tampered.holds(1, 2) in (True, False)
        assert calls == [n, n, n] and builds == [n, n] and lanes == held
        assert tampered._inversion is False
