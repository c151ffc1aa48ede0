import hashlib
import itertools
import operator
import random
import time

import pytest

from ld2.gf2n import Field
from ld2.keys import (
    KeyFormatError,
    PublicKey,
    QuadraticEquation,
    SecretKey,
    _GATE,
    _PRODUCT_FROM,
    _certify_after,
    decode_key,
    derive_public_key,
    encode_key,
    keygen,
    relation_residual,
)
from ld2.linalg import AffineMap, BitMatrix, Prng, SingularMatrixError, random_invertible
from ld2.linalg import solve_linear
from ld2.permutation import CentralMap, is_permutation_bruteforce

from conftest import TOY_ALPHA, lane_tables, verification_tables


# --- the hidden relation ----------------------------------------------------

def test_residual_toy_known_values(toy_sk):
    # y = (1,0,1) is the ciphertext of x = 0, so the residual vanishes
    assert relation_residual(toy_sk, 0b000, 0b101) == 0
    # worked by hand: residual at (0, 0) is g + g^2
    assert relation_residual(toy_sk, 0b000, 0b000) == 0b110
    with pytest.raises(ValueError):
        relation_residual(toy_sk, 8, 0)


def test_residual_vanishes_iff_central_map_matches(toy_sk):
    # independent route: residual zero <=> t(y) = g(s(x))
    cm = CentralMap(toy_sk.field, toy_sk.alpha)
    for x in range(8):
        for y in range(8):
            expected = toy_sk.t.apply(y) == cm(toy_sk.s.apply(x))
            assert (relation_residual(toy_sk, x, y) == 0) == expected


# --- coefficient extraction ---------------------------------------------------

def test_toy_public_equations_match_known_system(toy_pk, toy_expected):
    assert toy_pk.equations == toy_expected
    # the relation pins the first equation's constant to 0
    assert toy_pk.equations[0].constant == 0


def test_no_quadratic_y_terms(toy_pk):
    # equations are affine in y for every fixed x
    rng = random.Random(20)
    for eq in toy_pk.equations:
        for _ in range(20):
            x = rng.randrange(8)
            y1 = rng.randrange(8)
            y2 = rng.randrange(8)
            lhs = eq.evaluate(x, y1 ^ y2) ^ eq.evaluate(x, y1) ^ eq.evaluate(x, y2)
            assert lhs == eq.evaluate(x, 0)


@pytest.mark.parametrize("n", [3, 5])
def test_extraction_matches_residual_exhaustive(n):
    sk, pk = keygen(n, seed=0xBEEF + n)
    for x in range(1 << n):
        for y in range(1 << n):
            residual = relation_residual(sk, x, y)
            for i, eq in enumerate(pk.equations):
                assert eq.evaluate(x, y) == (residual >> i) & 1


def test_extraction_matches_residual_random_n17():
    sk, pk = keygen(17, seed=0xCAFE)
    rng = random.Random(21)
    for _ in range(300):
        x = rng.randrange(1 << 17)
        y = rng.randrange(1 << 17)
        residual = relation_residual(sk, x, y)
        for i, eq in enumerate(pk.equations):
            assert eq.evaluate(x, y) == (residual >> i) & 1


# --- the equation type ---------------------------------------------------------

def test_equation_term_round_trip(toy_expected):
    for eq in toy_expected:
        xx, xy, x, y, c = eq.terms()
        rebuilt = QuadraticEquation.from_terms(3, xx=xx, xy=xy, x=x, y=y, constant=c)
        assert rebuilt == eq


def test_equation_rejects_bad_shapes():
    # n = 3: xx has 3 bits, xy 9, xl and yl 3 each, c 1
    fields = [0, 0, 0, 0, 0]
    for i, width in enumerate((3, 9, 3, 3, 1)):
        for bad in (1 << width, -1):
            with pytest.raises(ValueError):
                QuadraticEquation(3, *fields[:i], bad, *fields[i + 1:])
    with pytest.raises(ValueError):
        QuadraticEquation(3, 0, 0, 0, 0, 2)  # constant 2
    with pytest.raises(ValueError):
        QuadraticEquation.from_terms(3, xx=((2, 2),))
    # x1 + x1 = 0 over GF(2), so a repeated term of any kind is rejected
    for terms in (dict(xx=((1, 2), (1, 2))), dict(xy=((3, 1), (3, 1))),
                  dict(x=(1, 1)), dict(y=(2, 3, 2))):
        with pytest.raises(ValueError, match="repeated term"):
            QuadraticEquation.from_terms(3, **terms)


# --- key generation -------------------------------------------------------------

def test_keygen_is_deterministic():
    sk1, pk1 = keygen(5, seed=77)
    sk2, pk2 = keygen(5, seed=77)
    assert sk1 == sk2
    assert pk1 == pk2
    assert encode_key(sk1) == encode_key(sk2)
    sk3, _ = keygen(5, seed=78)
    assert sk1 != sk3


def test_keygen_draw_order_is_pinned():
    # alpha first (rejection on trace), then A1, c1, A2, c2
    n, seed = 5, 123
    field = Field(n)
    prng = Prng(seed)
    while True:
        alpha = prng.bits(n)
        if field.trace(alpha) == 1:
            break
    a1 = random_invertible(n, prng)
    c1 = prng.bits(n)
    a2 = random_invertible(n, prng)
    c2 = prng.bits(n)
    sk, _ = keygen(n, seed)
    assert sk.alpha == alpha
    assert sk.s == AffineMap(a1, c1)
    assert sk.t == AffineMap(a2, c2)


def test_keygen_alpha_has_trace_one():
    for seed in range(5):
        sk, _ = keygen(3, seed)
        assert sk.field.trace(sk.alpha) == 1


def test_keygen_rejects_bad_n():
    for n in (1, 2, 4):
        with pytest.raises(ValueError):
            keygen(n, seed=0)


def test_keygen_central_map_is_bijective():
    sk, _ = keygen(11, seed=5)
    assert is_permutation_bruteforce(CentralMap(sk.field, sk.alpha), sk.field)


def test_secret_key_invariants(f8, toy_sk):
    with pytest.raises(ValueError):
        SecretKey(f8, toy_sk.s, toy_sk.t, 0b010)  # trace 0
    with pytest.raises(ValueError):
        SecretKey(f8, toy_sk.s, toy_sk.t, 8)
    other = AffineMap(BitMatrix.identity(5), 0)
    with pytest.raises(ValueError):
        SecretKey(f8, other, toy_sk.t, TOY_ALPHA)
    singular = AffineMap(BitMatrix((0b011, 0b110, 0b101), 3), 0)
    for s, t in ((singular, toy_sk.t), (toy_sk.s, singular)):
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            SecretKey(f8, s, t, TOY_ALPHA)


# --- the codec -------------------------------------------------------------------

def test_secret_key_round_trip(toy_sk):
    text = encode_key(toy_sk)
    assert text.splitlines()[0] == "LD2-SECRET v1"
    assert decode_key(text) == toy_sk


def test_public_key_round_trip(toy_pk):
    text = encode_key(toy_pk)
    assert text.splitlines()[0] == "LD2-PUBLIC v1"
    assert decode_key(text) == toy_pk


def test_round_trip_larger_keys():
    sk, pk = keygen(9, seed=2024)
    assert decode_key(encode_key(sk)) == sk
    assert decode_key(encode_key(pk)) == pk


def _decode_texts():
    # the files of two key pairs, at n = 5 and 33: secret, public, secret,
    # public
    return [
        (key, encode_key(key))
        for n, seed in ((5, 0xDEC0), (33, 0xDEC1))
        for key in keygen(n, seed)
    ]


def test_decode_does_no_encoding(monkeypatch):
    # a canonical public file is read at the offsets its layout fixes:
    # decoding never encodes the key or builds the file's text, and the key
    # keeps the parsed values as its fields and builds no tables
    import ld2.keys as keys_mod

    texts = _decode_texts()

    def forbidden(*args):
        raise AssertionError("decode_key must not encode, build text or build tables")

    monkeypatch.setattr(keys_mod, "_lane_major", forbidden)
    monkeypatch.setattr(keys_mod, "encode_key", forbidden)
    monkeypatch.setattr(keys_mod, "_key_text", forbidden)
    for key, text in texts[1::2]:
        decoded = decode_key(text)
        assert decoded == key and decoded._inversion is None
    # a file that is not canonical goes to the line reader, which builds
    # the canonical text to name the first line that differs: here the
    # last of the n = 5 public file's 28, with no final newline
    monkeypatch.undo()
    with pytest.raises(KeyFormatError, match="^line 28 is not in canonical form$"):
        decode_key(texts[1][1][:-1])


def test_secret_decode_builds_one_text(monkeypatch):
    # a secret file, five short lines, goes to the line reader, which
    # builds the canonical text of the values it parsed once, compares it
    # with the file and never encodes the key
    import ld2.keys as keys_mod

    texts = _decode_texts()[0::2]
    built = []

    def counted(secret, n, values, original=keys_mod._key_text):
        built.append((secret, n))
        return original(secret, n, values)

    def forbidden(*args):
        raise AssertionError("decode_key must not encode the key")

    monkeypatch.setattr(keys_mod, "_key_text", counted)
    monkeypatch.setattr(keys_mod, "encode_key", forbidden)
    for key, text in texts:
        del built[:]
        decoded = decode_key(text)
        assert isinstance(decoded, SecretKey) and decoded == key
        assert built == [(True, key.field.n)]


@pytest.mark.parametrize("n", [3, 9, 11, 99, 101, 129])
def test_key_length_is_the_length_of_every_key_file(n):
    # decode_key compares it with the text's length before it reads any
    # line; equation numbers of one, two and three digits
    import ld2.keys as keys_mod

    for secret in (True, False):
        text = keys_mod._key_text(secret, n, itertools.repeat(0))
        assert keys_mod._layout(secret, n)[1] == len(text)


def test_the_layout_is_computed_once_per_size():
    # the encodes and decodes of one key pair build each kind's layout once
    import ld2.keys as keys_mod

    pair = keygen(33, seed=0x1A70)
    keys_mod._layout.cache_clear()
    for misses, key in enumerate(pair, 1):
        for _ in range(2):
            assert decode_key(encode_key(key)) == key
        assert keys_mod._layout.cache_info().misses == misses
    assert keys_mod._layout.cache_info().hits == 6


def test_a_claimed_huge_n_fails_at_once():
    # n comes from the file: the n = 3 public file claiming n = 10001, and
    # 5n + 3 lines claiming n = 20001, which pass the line count; neither
    # builds a layout or searches for a modulus
    import ld2.keys as keys_mod
    from ld2.gf2n import find_irreducible

    n = 20001
    cases = (
        (encode_key(keygen(3, 1)[1]).replace("n=3 m=2", "n=10001 m=5001"),
         "public key file has 18 lines, expected 50008"),
        (f"LD2-PUBLIC v1\nn={n} m={(n + 1) // 2}\npoly=00\n" + "\n" * (5 * n),
         "line 4: byte string has the wrong length"),
    )
    for text, message in cases:
        misses = keys_mod._layout.cache_info().misses, find_irreducible.cache_info().misses
        start = time.perf_counter()
        with pytest.raises(KeyFormatError, match=f"^{message}$"):
            decode_key(text)
        assert time.perf_counter() - start < 1
        assert (keys_mod._layout.cache_info().misses,
                find_irreducible.cache_info().misses) == misses


def test_forms_and_tables_are_built_lazily(tmp_path, capsys, monkeypatch):
    # a key holds its file fields; keygen, the codec, verification, the
    # equation views, the CLI's verify and inspect, linear_system and the
    # first K - 1 encrypted blocks never build the lane tables; the K-th
    # block certifies the key, and its first holds after that builds them
    # once, from one walk of the fields: the gate's and the whole tables
    import ld2.keys as keys_mod
    from ld2.cipher import encrypt_block, sign, verify
    from ld2.cli import main
    from ld2.gf2n import bits_to_hex

    calls = []
    original = keys_mod._lane_major

    def counted(n, fields):
        calls.append(fields)
        return original(n, fields)

    monkeypatch.setattr(keys_mod, "_lane_major", counted)
    n = 9
    sk, pk = keygen(n, seed=0x1A2F)
    secret, public = tmp_path / "k.sec", tmp_path / "k.pub"
    secret.write_text(encode_key(sk))
    public.write_text(encode_key(pk))
    decoded = decode_key(public.read_text())
    signature = sign(sk, 3)
    for key in (pk, decoded):
        assert verify(key, 3, signature) and not verify(key, 3, signature ^ 4)
        assert key.holds(1, 2) in (True, False)
    verify_argv = ["verify", "--public", str(public), "--digest", bits_to_hex(3, n), "--sig"]
    assert main(verify_argv + [bits_to_hex(signature, n)]) == 0
    assert main(["inspect", "--key", str(public)]) == 0
    capsys.readouterr()
    assert calls == [] and pk._inversion is None and decoded._inversion is None

    first = encrypt_block(decoded, 5)
    assert decoded.linear_system(6) and calls == [] and decoded._inversion is None
    k = _certify_after(n)
    assert [encrypt_block(decoded, 5) for _ in range(k - 2)] == [first] * (k - 2)
    assert calls == [] and decoded._inversion is None
    assert encrypt_block(decoded, 5) == first
    assert calls == [] and decoded._inversion and lane_tables(decoded) == (None, None)
    assert verify(decoded, 3, signature) and not verify(decoded, 3, signature ^ 4)
    assert calls == [decoded.fields]
    assert lane_tables(decoded) == verification_tables(n, decoded.fields)
    assert encrypt_block(decoded, 5) == first and decoded.linear_system(6)
    assert decoded.holds(1, 2) in (True, False)
    assert decoded.equations == pk.equations and pk._inversion is None
    assert len(calls) == 1
    built = PublicKey(n, pk.equations)
    assert built == pk and built.fields == pk.fields and built._inversion is None
    assert len(calls) == 1


def test_secret_key_eliminates_a1_once_and_ranks_a2(monkeypatch):
    # decryption applies s^-1 only, so t is proved invertible by a rank and
    # never inverted
    import ld2.keys as keys_mod
    import ld2.linalg as linalg_mod

    sk, _ = keygen(9, seed=0xE11)
    text = encode_key(sk)
    calls = []
    for name in ("invert_matrix", "rank"):
        original = getattr(linalg_mod, name)

        def counted(matrix, original=original, name=name):
            calls.append((name, matrix))
            return original(matrix)

        # wrapped wherever ld2 looks the function up
        for module in (linalg_mod, keys_mod):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    expected = [("invert_matrix", sk.s.matrix), ("rank", sk.t.matrix)]
    assert decode_key(text) == sk
    assert calls == expected
    calls.clear()
    SecretKey(sk.field, sk.s, sk.t, sk.alpha)
    assert calls == expected


def test_lane_tables_are_built_once_at_the_kth_block(monkeypatch):
    # keygen, the key codec, verification and the first K - 1 encrypted
    # blocks never pay for verification's tables, nor does encryption
    # after the K-th block, which certifies the key; the first holds after
    # it builds them, once per key, from one walk of the fields: the gate's
    # lane tables and below _PRODUCT_FROM the whole lane tables, of all n
    # equations, and from there the gate's alone, of its first _GATE
    import ld2.keys as keys_mod
    from ld2.cipher import encrypt_block, encrypt_message, sign, verify

    builds = []  # the equation count of each walk of the fields
    original = keys_mod._lane_major

    def counted(n, fields):
        builds.append(len(fields))
        return original(n, fields)

    monkeypatch.setattr(keys_mod, "_lane_major", counted)
    for n in (9, _PRODUCT_FROM):
        builds.clear()
        sk, pk = keygen(n, seed=0x1A2E)
        decoded = decode_key(encode_key(pk))
        signature = sign(sk, 3)
        message = b"lane-major" * (n // 2)  # K blocks or more
        once = [n if n < _PRODUCT_FROM else min(_GATE, n)]

        def check(key):
            assert key.holds(1, 2) in (True, False)
            assert verify(key, 3, signature)
            assert not verify(key, 3, signature ^ 1)

        for key in (pk, decoded):
            check(key)
        assert builds == [] and pk._inversion is None and decoded._inversion is None
        k = _certify_after(n)
        first = encrypt_block(pk, 5)
        assert [encrypt_block(pk, 5) for _ in range(k - 2)] == [first] * (k - 2)
        assert builds == [] and pk._inversion is None
        assert encrypt_block(pk, 5) == first
        assert encrypt_block(pk, 5) == first
        encrypt_message(pk, message)
        assert builds == [] and pk._inversion and lane_tables(pk) == (None, None)
        check(pk)
        tables = lane_tables(pk)
        assert builds == once and tables == verification_tables(n, pk.fields)
        assert (tables[1] is None) == (n >= _PRODUCT_FROM)
        check(pk)
        assert builds == once and all(map(operator.is_, lane_tables(pk), tables))
        # a message of K blocks or more certifies a fresh key, whose first
        # holds builds them: the tables of equal fields are equal
        assert encrypt_message(decoded, message) == encrypt_message(pk, message)
        assert encrypt_block(decoded, 5) == first
        assert builds == once and decoded._inversion and lane_tables(decoded) == (None, None)
        check(decoded)
        assert builds == once * 2 and lane_tables(decoded) == tables


@pytest.mark.parametrize("n", [9, 33, 97, 129])
def test_the_first_holds_on_a_certified_key_walks_the_fields_once(n, monkeypatch):
    # each walk logs its count of equations: the first holds on a certified
    # key walks all n below _PRODUCT_FROM and the gate's _GATE from there,
    # once; a later holds, and any holds on a key below K, on a refused
    # key or on a key that only encrypts, walks none
    import ld2.keys as keys_mod
    from ld2.cipher import sign, verify

    walks = []
    original = keys_mod._lane_major

    def counted(n, fields):
        walks.append(len(fields))
        return original(n, fields)

    monkeypatch.setattr(keys_mod, "_lane_major", counted)
    sk, pk = keygen(n, seed=0x1A3E + n)
    signature = sign(sk, 3)
    tampered = [list(f) for f in pk.fields]
    tampered[1][1] ^= 1 << n  # one xy bit
    refused = PublicKey._from_fields(n, tuple(map(tuple, tampered)))
    below = decode_key(encode_key(pk))
    encrypting = decode_key(encode_key(pk))
    k = _certify_after(n)
    for key in (pk, refused, encrypting):
        key.solve([0] * k)
    below.solve([0] * (k - 1))
    assert pk._inversion and encrypting._inversion and refused._inversion is False
    assert below._inversion is None
    for key in (below, refused):
        for forged in (signature, signature ^ 1):
            expected = not any(eq.evaluate(forged, 3) for eq in key.equations)
            assert verify(key, 3, forged) == expected
    assert verify(below, 3, signature) and not verify(below, 3, signature ^ 1)
    assert walks == [] and lane_tables(encrypting) == (None, None)
    assert verify(pk, 3, signature)
    assert walks == [n if n < _PRODUCT_FROM else _GATE]
    for _ in range(3):
        assert verify(pk, 3, signature) and not verify(pk, 3, signature ^ 1)
    encrypting.solve([1, 2])
    assert walks == [n if n < _PRODUCT_FROM else _GATE]
    assert lane_tables(encrypting) == (None, None)


@pytest.mark.parametrize("n", [9, 33, 129])
def test_the_certificate_keeps_m0_and_its_inverse(n):
    # a certified key's m0 is M(0), whose row i is equation i's yl, and its
    # p is M(0)^-1
    _, pk = keygen(n, seed=0x30E + n)
    pk.solve([0] * _certify_after(n))
    certified = pk._inversion
    assert certified
    rng = random.Random(n)
    for y in [0, 1, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(30))]:
        image = certified.m0.apply(y)
        for i, (_, _, _, yl, _) in enumerate(pk.fields):
            assert image >> i & 1 == (yl & y).bit_count() & 1
        assert certified.p.apply(image) == y


@pytest.mark.parametrize("n", [9, 65, 129])
def test_holds_reads_only_the_tables_with_the_copy(n, monkeypatch):
    # with verification's tables, which the first holds on a certified
    # key builds, valid pairs and forgeries go through the gate tables and
    # the whole copy (n = 9, 65) or one field product (n = 129) alone; a
    # decoded key without them evaluates on its file fields, once per
    # call, and builds no tables
    import ld2.keys as keys_mod
    from ld2.cipher import sign, verify

    sk, pk = keygen(n, seed=0x1A7E + n)
    decoded = decode_key(encode_key(pk))
    evaluations = []
    original = keys_mod._vanish_on_fields

    def counted(n, fields, x, y):
        evaluations.append(n)
        return original(n, fields, x, y)

    monkeypatch.setattr(keys_mod, "_vanish_on_fields", counted)
    pk.solve([0] * _certify_after(n))
    assert pk._inversion
    rng = random.Random(n)
    pairs, expected = [], []
    for _ in range(4):
        digest = rng.getrandbits(n)
        signature = sign(sk, digest)
        pairs += [(signature, digest)] + [(signature ^ 1 << i, digest) for i in range(n)]
        expected += [True] + [False] * n
    assert [verify(pk, digest, signature) for signature, digest in pairs] == expected
    assert evaluations == []
    assert [decoded.holds(*pair) for pair in pairs] == expected
    assert evaluations == [n] * len(pairs)
    assert decoded._inversion is None


@pytest.mark.parametrize("n", [129, 257])
def test_holds_agrees_with_and_without_the_lane_major_copy(n):
    # the decoded key evaluates every equation on its file fields; the
    # other, certified at the K-th block, checks the gate's through its
    # tables, then all of them by one field product.  Both see the valid
    # pair and every one-bit flip of the signature and of the digest
    from ld2.cipher import sign

    sk, pk = keygen(n, seed=0x1A6E + n)
    pk.solve([0] * _certify_after(n))
    decoded = decode_key(encode_key(pk))
    assert decoded == pk and pk._inversion and decoded._inversion is None
    digest = random.Random(n).getrandbits(n)
    signature = sign(sk, digest)
    pairs = [(signature, digest)]
    pairs += [(signature ^ 1 << i, digest) for i in range(n)]
    pairs += [(signature, digest ^ 1 << i) for i in range(n)]
    expected = [True] + [False] * (2 * n)
    assert [pk.holds(*pair) for pair in pairs] == expected
    assert [decoded.holds(*pair) for pair in pairs] == expected
    assert decoded._inversion is None


@pytest.mark.parametrize("n", [_PRODUCT_FROM, 129])
def test_the_field_product_finds_one_failing_equation_past_the_gate(n):
    # the certificate reads only xy and yl, so a generated key with one
    # constant flipped stays certified; at a valid pair of the generated
    # key that equation alone fails, and past the gate only the field
    # product sees it.  At a pair that the flipped key's own system gives
    # every equation holds
    from ld2.cipher import sign

    sk, pk = keygen(n, seed=0x1A5E + n)
    rng = random.Random(n)
    digest = rng.getrandbits(n)
    signature = sign(sk, digest)
    for i in (0, _GATE - 1, _GATE, n // 2, n - 1):
        fields = list(pk.fields)
        fields[i] = (*fields[i][:4], fields[i][4] ^ 1)
        key = PublicKey._from_fields(n, tuple(fields))
        key.solve([0] * _certify_after(n))
        assert key._inversion
        assert not key.holds(signature, digest)
        assert key._inversion.lanes is None
        x = rng.getrandbits(n)
        y = solve_linear(*key.linear_system(x))
        assert key.holds(x, y) and not key.holds(x, y ^ 1 << i)


def test_toy_secret_encoding_is_stable(toy_sk):
    assert encode_key(toy_sk) == (
        "LD2-SECRET v1\n"
        "n=3 m=2\n"
        "poly=0b\n"
        "alpha=07\n"
        "A1=3301\n"
        "c1=05\n"
        "A2=3701\n"
        "c2=02\n"
    )


def test_decode_rejects_tampered_alpha(toy_sk):
    text = encode_key(toy_sk)
    tampered = text.replace("alpha=07", "alpha=02")  # trace-0 value
    with pytest.raises(KeyFormatError):
        decode_key(tampered)


def test_decode_rejects_singular_matrix(toy_sk):
    # a singular A1 or A2 is a key invariant violation, not a format slip
    text = encode_key(toy_sk)
    for line in ("A1=3301", "A2=3701"):
        tampered = text.replace(line, line[:3] + "0000")
        assert tampered != text
        with pytest.raises(KeyFormatError, match="invalid secret key"):
            decode_key(tampered)


def test_decode_rejects_truncation_and_junk(toy_sk, toy_pk):
    secret = encode_key(toy_sk)
    public = encode_key(toy_pk)
    for text in (secret, public):
        lines = text.splitlines()
        with pytest.raises(KeyFormatError):
            decode_key("\n".join(lines[:-1]) + "\n")
        with pytest.raises(KeyFormatError):
            decode_key(text + "spurious=1\n")
        # a huge n must fail on the line count, before any per-line work
        start = time.perf_counter()
        with pytest.raises(KeyFormatError):
            decode_key(text.replace("n=3 m=2", "n=100000001 m=50000001"))
        assert time.perf_counter() - start < 1
    with pytest.raises(KeyFormatError):
        decode_key("")
    with pytest.raises(KeyFormatError):
        decode_key("LD2-SECRET v2\nn=3 m=2\npoly=0b\n")


@pytest.mark.parametrize(
    "kind, line, corrupt",
    [
        ("secret", 5, lambda value: "z" * len(value)),
        ("public", 8, lambda value: "7"),
        ("public", 10, lambda value: value[:-2]),  # one byte short
    ],
    ids=["A1-not-hex", "eq1.c-not-a-bit", "eq2.xy-short"],
)
def test_decode_names_the_bad_line(toy_sk, toy_pk, kind, line, corrupt):
    lines = encode_key(toy_sk if kind == "secret" else toy_pk).splitlines()
    name, _, value = lines[line - 1].partition("=")
    lines[line - 1] = f"{name}={corrupt(value)}"
    with pytest.raises(KeyFormatError, match=f"^line {line}: "):
        decode_key("\n".join(lines) + "\n")


def test_decode_rejects_wrong_dimensions(toy_sk):
    text = encode_key(toy_sk)
    with pytest.raises(KeyFormatError):
        decode_key(text.replace("n=3 m=2", "n=4 m=2"))
    with pytest.raises(KeyFormatError):
        decode_key(text.replace("n=3 m=2", "n=3m=2"))


def test_decode_rejects_noncanonical_modulus(toy_sk):
    text = encode_key(toy_sk)
    # x^3 + x^2 + 1 is irreducible but not the canonical pick
    with pytest.raises(KeyFormatError):
        decode_key(text.replace("poly=0b", "poly=0d"))


@pytest.mark.parametrize("kind", ["secret", "public"])
def test_decode_rejects_noncanonical_text(kind):
    key = keygen(5, seed=0x5A5A)[kind == "public"]
    text = encode_key(key)
    assert decode_key(text) == key
    lines = text.splitlines(keepends=True)
    fields = (line.partition("=") for line in lines[3:])
    upper = "".join(lines[:3]) + "".join(
        f"{name}={value.upper()}" for name, _, value in fields
    )
    assert upper != text  # some hex digit is a letter
    for bad, line in (
        (text.replace("n=5 m=3", "n=+5 m=0_3"), 2),
        (text.replace("n=5 m=3", "n=5 m=4"), 2),
        (upper, 4),
        (text[:-1], len(lines)),
    ):
        with pytest.raises(KeyFormatError, match=f"line {line} is not in canonical form"):
            decode_key(bad)


# every substitution, deletion and truncation of these key files, and what
# decode_key made of each: the SHA-256 of all outcomes, in order
SWEEP_ALPHABET = "0123456789abcdefABCDEFg=.+_\n\r\x0b\x1c\x85\u2028 \t\x00"
SWEEP_SHA256 = "5665f75079364fa5f2dc57f11759b9f8831c9bdf4788a6919028602a8a9fa3c9"


def _mutations(text: str):
    for i, char in enumerate(text):
        for other in SWEEP_ALPHABET:
            if other != char:
                yield text[:i] + other + text[i + 1:]
        yield text[:i] + text[i + 1:]
    for end in range(len(text)):
        yield text[:end]


def test_mutated_key_files_decode_as_pinned():
    # a tampered file either fails with KeyFormatError or is the exact
    # encoding of another key, never the original; every outcome is pinned
    digest = hashlib.sha256()
    count = others = 0
    for n in (3, 5):
        for key in keygen(n, 1):
            for text in _mutations(encode_key(key)):
                try:
                    decoded = decode_key(text)
                except KeyFormatError as exc:
                    outcome = f"KeyFormatError: {exc}"
                else:
                    assert decoded != key
                    outcome = encode_key(decoded)
                    others += 1
                digest.update(outcome.encode() + b"\x00")
                count += 1
    assert (count, others) == (23544, 1098)
    assert digest.hexdigest() == SWEEP_SHA256


def test_encode_rejects_other_types():
    with pytest.raises(TypeError):
        encode_key("not a key")
