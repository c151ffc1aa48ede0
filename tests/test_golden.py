"""Golden vectors: SHA-256 digests of byte-exact outputs for fixed seeds.

Key files, message ciphertexts, signatures and public-key fingerprints
are pinned here, and each pinned key file must decode back to its key, so
a rewrite of the PRNG, of key derivation, of the key codec or of a hot
path cannot change what a given seed, message, digest or key file
produces without failing.
"""

import functools
import hashlib

import pytest

from ld2.cipher import encrypt_message, sign
from ld2.gf2n import bits_to_hex
from ld2.keys import decode_key, derive_public_key, encode_key, fingerprint, keygen

SEEDS = {5: 0x5EED05, 33: 0x5EED21, 129: 0x5EED81, 257: 0x5EED101}

MESSAGES = (b"", b"Little Dragon Two", bytes(range(256)))

# sha256 of the secret file, the public file, the concatenated ciphertexts
# of MESSAGES, and the signatures of _digests(n) as newline-ended hex lines
GOLDEN = {
    5: (
        "31e012e06b013bdcdedaa5e6d98fdad5c72379b9cad85a438aadf429b2f7e37f",
        "3d2f0c6e1f9842ddb6e717514d4b0f96c6f7455a308e8ae79a23ec1aaa9f66fa",
        "62a95ed117df0fd59395b6a750c66aadcaa9252ea58766ea411eeeb1974a7e64",
        "20ca8388eedb2977e4b4705dbde5daf5ffcfb273d60a3cd3a3b0ec6ba9d229a3",
    ),
    33: (
        "00af39dae1660e32e0893f6aee2f171b45c32dc9f21035a419b1f0a0e9cecfcd",
        "d64df5fd8647e51b1cc9ee84c2716d097f9a4a485a5cc1e0f643ede1f0413a4a",
        "fddba61ddfd9f9f038b0993714d751ea3c1d0b1c43f9e74ae68ec9016b929dea",
        "5498120c4bc4bef74fe9b2b3f89953ecddd782d7f0835bcaef1462dd005464da",
    ),
    129: (
        "3cae8aa89f5878a2258a9c56c1143a24f4bf39c80682f1df2cacab01a2f0161f",
        "29359aef7000b4597fc99aba56cfe9a2a74b41dd77bfd9f3a59e55f9eb92faf9",
        "a5b5d6c5d9a57db45fcd6f76979c9357c22757445906b29beb0330529dfcd98b",
        "adb612a292bdfbbfd167e888c352e0a1e34e2f65eb44be194a8e4a126792bf3c",
    ),
    257: (
        "b0856e91ed3d3af148fa46b17aabc63378a1fca75dbcbb0cd00968a9c6aabe4b",
        "9b7caa1e5ebeb2ae5a7b654233895be8d440d07b28305ace800d3a903664fe1f",
        "98abaaf71e6187f6c9350061a2f04cd6ead36526d2e9093cd93adef43a672bfe",
        "38fb24204fd0f886c42115cf7ccdaca28c55bb06b20bf4dfc3960c6ceeed57b8",
    ),
}


# fingerprint of the public key, for the key pairs of SEEDS
FINGERPRINTS = {
    5: "3d2f0c6e1f9842ddb6e717514d4b0f96c6f7455a308e8ae79a23ec1aaa9f66fa",
    33: "d64df5fd8647e51b1cc9ee84c2716d097f9a4a485a5cc1e0f643ede1f0413a4a",
}


@functools.lru_cache(maxsize=None)
def _keys(n):
    return keygen(n, SEEDS[n])


def _digests(n):
    fixed = [0, (1 << n) - 1]
    for i in range(4):
        h = hashlib.sha256(f"ld2 golden digest {i}".encode()).digest()
        fixed.append(int.from_bytes(h, "little") % (1 << n))
    return fixed


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_key_files(n):
    sk, pk = _keys(n)
    for key, digest in zip((sk, pk), GOLDEN[n]):
        text = encode_key(key)
        assert _sha(text) == digest
        assert decode_key(text) == key


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_message_ciphertexts(n):
    _, pk = _keys(n)
    assert _sha(b"".join(encrypt_message(pk, m) for m in MESSAGES)) == GOLDEN[n][2]


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_signatures(n):
    sk, _ = _keys(n)
    lines = "".join(bits_to_hex(sign(sk, d), n) + "\n" for d in _digests(n))
    assert _sha(lines) == GOLDEN[n][3]


@pytest.mark.parametrize("n", sorted(FINGERPRINTS))
def test_fingerprints(n):
    # the same for the generated, the decoded and the re-derived key
    sk, pk = _keys(n)
    decoded = decode_key(encode_key(pk))
    for key in (pk, decoded, derive_public_key(sk)):
        assert fingerprint(key) == FINGERPRINTS[n]
    with pytest.raises(TypeError):
        fingerprint(sk)
