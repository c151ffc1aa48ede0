"""Block encryption and decryption, signatures, and message-level framing.

Encryption substitutes the plaintext block into the public equations,
which leaves a linear system in the ciphertext bits, and solves it
(PublicKey.solve): by elimination, or on a key certified at its K-th
block by one field inversion for all the blocks of a call.  The keys
module docstring gives the algebra, the certificate, the tables and K.

Decryption inverts the central map with a single field exponentiation;
the central map is a bijection, so the preimage is unique and is always
the second of the two candidates the inversion formula gives.  A block
(decrypt_block) takes that exponentiation; a message's blocks share one
field inversion, since the exponentiation z1^(2^m - 1) is F(z1) / z1, F
the Frobenius map by 2^m, and the inversion serves all the z1 by
Montgomery's trick (Field.quotients), as it serves encryption's z(x)
(decrypt_message).  Each block, alone or in a message, takes one
relation residual to catch faults.  Signing is decryption of the digest,
block by block; verification is evaluation of the public equations.

Messages longer than one block use electronic-codebook composition with
always-appended 10* padding.  That is faithful to the single-block scheme
but deterministic, so it leaks block equality; see the README caveats.
"""

from __future__ import annotations

from .gf2n import packed_size
from .keys import PublicKey, SecretKey, relation_residual
from .linalg import SingularMatrixError


class MalformedKeyError(ValueError):
    """Public key produced an unsolvable encryption system."""


class DecryptionError(ValueError):
    """A decrypted block fails the hidden relation: a fault or a bug, not a
    wrong-key signal.  The central map is a bijection, so every block
    decrypts under every key."""


class PaddingError(ValueError):
    """Message padding is structurally invalid."""


def _check_block(value: int, n: int) -> None:
    if not 0 <= value < 1 << n:
        raise ValueError("block length mismatch")


def _solve(pk: PublicKey, blocks: list[int]) -> list[int]:
    """The ciphertexts of blocks, by PublicKey.solve."""
    try:
        return pk.solve(blocks)
    except SingularMatrixError as exc:
        # cannot happen for honestly generated keys: the y-coefficient
        # matrix is invertible because the inner term of the central map
        # never vanishes
        raise MalformedKeyError("public key yields a singular system") from exc


def encrypt_block(pk: PublicKey, x: int) -> int:
    """Encrypt one n-bit block: the solution of the public system at x."""
    return _solve(pk, [x])[0]


def decrypt_candidates(sk: SecretKey, y: int) -> tuple[int, int]:
    """Both preimage candidates for the ciphertext y.

    With v = t(y):
        z1 = alpha + 1 + v + v^(2^m)
        z2 = z1^(2^m - 1)           (the single exponentiation)
        z3 = v + 1 + z2
    and the candidates are s^-1(v + 1) and s^-1(z3).  When z1 = 0 the two
    coincide, since z2 is then 0 as well.
    """
    field = sk.field
    _check_block(y, field.n)
    v = sk.t.apply(y)
    z1 = sk.alpha ^ 1 ^ v ^ field.frobenius(v)
    z2 = field.pow(z1, (1 << field.m) - 1)
    z3 = v ^ 1 ^ z2
    return sk.s_inverse.apply(v ^ 1), sk.s_inverse.apply(z3)


_FAULT = "decrypted block fails the hidden relation"


def decrypt_block(sk: SecretKey, y: int) -> int:
    """Decrypt one block: the second candidate, s^-1(z3), is the preimage.

    One residual evaluation checks the result against faults.
    """
    x = decrypt_candidates(sk, y)[1]
    if relation_residual(sk, x, y):
        raise DecryptionError(_FAULT)
    return x


def sign(sk: SecretKey, digest: int) -> int:
    """Signature of an n-bit digest: the unique block encrypting to it."""
    return decrypt_block(sk, digest)


def verify(pk: PublicKey, digest: int, signature: int) -> bool:
    """Check a signature by checking the public equations at it; no solve
    needed.  PublicKey.holds gives how: on the key-file fields for a key
    below K or refused, and through the tables that its first verify
    builds for a certified key."""
    return pk.holds(signature, digest)


def pad_message(data: bytes, n: int) -> list[int]:
    """Split a byte string into n-bit blocks with always-appended 10* padding.

    A single 1 bit follows the message bits, then zeros up to the next
    block boundary; aligned messages therefore gain a whole extra block.
    """
    if n < 1:
        raise ValueError("block size must be positive")
    stream = int.from_bytes(data, "little")
    total = 8 * len(data)
    stream |= 1 << total
    total += 1
    nblocks = -(-total // n)
    mask = (1 << n) - 1
    return [(stream >> (i * n)) & mask for i in range(nblocks)]


def unpad_message(blocks, n: int) -> bytes:
    """Inverse of pad_message: strip from the last 1 bit.

    A padding error names the 0-based block that holds the last 1 bit, or
    the last block when there is none, as in "block 3: ...".
    """
    stream = 0
    for i, block in enumerate(blocks):
        _check_block(block, n)
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


def encrypt_message(pk: PublicKey, data: bytes) -> bytes:
    """Pad and encrypt a byte string block by block (ECB composition).  On
    a certified key all blocks share one field inversion."""
    ciphertext = _solve(pk, pad_message(data, pk.n))
    block_bytes = packed_size(pk.n)
    return b"".join(y.to_bytes(block_bytes, "little") for y in ciphertext)


def decrypt_message(sk: SecretKey, data: bytes) -> bytes:
    """Decrypt, then unpad; rejects misaligned input and slack bits.

    The blocks share one field inversion.  For each block v = t(y) and
    z1 = alpha + 1 + v + F(v), F the Frobenius map by 2^m; the single
    exponentiation z2 = z1^(2^m - 1) is F(z1) / z1, or 0 when z1 = 0, and
    the k nonzero z1 are inverted together (Field.quotients): one Field.inv
    and 3(k - 1) Field.mul, plus one Field.mul a block for F(z1), where
    decrypt_block takes one Field.pow a block.  No other Field.pow runs.
    The plaintext is s^-1(v + 1 + z2), as in decrypt_candidates, and every
    block keeps its one relation_residual, the fault check.

    Slack bits are checked in every block before any is decrypted.  Errors
    in a block name its 0-based index, as in "block 3: ...", and so do
    padding errors (see unpad_message).
    """
    field = sk.field
    n = field.n
    block_bytes = packed_size(n)
    if len(data) == 0 or len(data) % block_bytes:
        raise ValueError("ciphertext length is not a multiple of the block size")
    ciphertext = []
    for index, i in enumerate(range(0, len(data), block_bytes)):
        value = int.from_bytes(data[i : i + block_bytes], "little")
        if value >> n:
            raise ValueError(f"block {index}: nonzero slack bits in ciphertext block")
        ciphertext.append(value)
    vs = [sk.t.apply(y) for y in ciphertext]
    base = sk.alpha ^ 1
    z1s = [base ^ v ^ field.frobenius(v) for v in vs]
    z2s = iter(field.quotients([(field.frobenius(z1), z1) for z1 in z1s if z1]))
    blocks = []
    for index, (y, v, z1) in enumerate(zip(ciphertext, vs, z1s)):
        x = sk.s_inverse.apply(v ^ 1 ^ (next(z2s) if z1 else 0))
        if relation_residual(sk, x, y):
            raise DecryptionError(f"block {index}: {_FAULT}")
        blocks.append(x)
    return unpad_message(blocks, n)
