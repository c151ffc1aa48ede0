import pytest

# the n = 3 toy fixture; test modules import its constants from here
from ld2.cli import (
    TOY_A1,
    TOY_A2,
    TOY_ALPHA,
    TOY_C1,
    TOY_C2,
    TOY_EQUATIONS,
    toy_secret_key,
)
from ld2.cipher import DecryptionError, decrypt_block, unpad_message
import ld2.keys as keys_mod
from ld2.gf2n import Field, packed_size
from ld2.keys import QuadraticEquation, _lane_major, derive_public_key
from ld2.linalg import nibble_windows


def outcome(fn, *args) -> str:
    """fn(*args) as its repr, or a ValueError (ld2's error types among
    them) as its type and message; any other exception propagates."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def decrypt_per_block(sk, data: bytes) -> bytes:
    """decrypt_message's reference: the framing checks, decrypt_block on
    each block in turn, then unpad_message."""
    n = sk.field.n
    size = packed_size(n)
    if len(data) == 0 or len(data) % size:
        raise ValueError("ciphertext length is not a multiple of the block size")
    blocks = []
    for index, i in enumerate(range(0, len(data), size)):
        y = int.from_bytes(data[i : i + size], "little")
        if y >> n:
            raise ValueError(f"block {index}: nonzero slack bits in ciphertext block")
        try:
            blocks.append(decrypt_block(sk, y))
        except DecryptionError as exc:
            raise DecryptionError(f"block {index}: {exc}") from exc
    return unpad_message(blocks, n)


def verification_tables(n: int, fields) -> tuple:
    """(gate, lanes), what the first holds on a certified key with these
    fields builds for verification, made here by the unpatched _lane_major
    with a walk of its own for each: the lane tables of the first
    min(keys._GATE, n) equations, then those of all n below
    keys._PRODUCT_FROM, else None.  The two constants are read at the call,
    so a test may patch them."""
    def tables(count):
        lanes = _lane_major(n, fields[:count])
        return nibble_windows(lanes[:n]), lanes[n]

    return tables(min(keys_mod._GATE, n)), tables(n) if n < keys_mod._PRODUCT_FROM else None


def lane_tables(key) -> tuple:
    """(gate, lanes) of a certified key: both None before its first holds."""
    return key._inversion.gate, key._inversion.lanes


@pytest.fixture(scope="session")
def f8():
    return Field(3)


@pytest.fixture(scope="session")
def toy_sk():
    return toy_secret_key()


@pytest.fixture(scope="session")
def toy_pk(toy_sk):
    return derive_public_key(toy_sk)


@pytest.fixture(scope="session")
def toy_expected():
    return tuple(QuadraticEquation.from_terms(3, **terms) for terms in TOY_EQUATIONS)
