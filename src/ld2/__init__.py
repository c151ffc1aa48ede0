"""Little Dragon Two multivariate public-key cryptosystem (research artifact).

Blocks, digests and signatures are n-bit vectors packed into ints (bit i
holds coordinate i + 1); see gf2n for the packing and hex conventions.
"""

from .cipher import (
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
from .gf2n import (
    Field,
    bits_to_hex,
    bytes_to_bits,
    bits_to_bytes,
    find_irreducible,
    hex_to_bits,
    is_irreducible,
)
from .keys import (
    KeyFormatError,
    PublicKey,
    QuadraticEquation,
    SecretKey,
    decode_key,
    derive_public_key,
    encode_key,
    fingerprint,
    keygen,
    relation_residual,
)
from .linalg import (
    AffineMap,
    BitMatrix,
    Prng,
    SingularMatrixError,
    invert_matrix,
    random_invertible,
    rank,
    solve_linear,
)
from .permutation import (
    CentralMap,
    frobenius_trinomial_is_permutation,
    inner_term_never_zero,
    is_permutation_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BitMatrix",
    "CentralMap",
    "DecryptionError",
    "Field",
    "KeyFormatError",
    "MalformedKeyError",
    "PaddingError",
    "Prng",
    "PublicKey",
    "QuadraticEquation",
    "SecretKey",
    "SingularMatrixError",
    "bits_to_bytes",
    "bits_to_hex",
    "bytes_to_bits",
    "decode_key",
    "decrypt_block",
    "decrypt_candidates",
    "decrypt_message",
    "derive_public_key",
    "encode_key",
    "encrypt_block",
    "encrypt_message",
    "find_irreducible",
    "fingerprint",
    "frobenius_trinomial_is_permutation",
    "hex_to_bits",
    "inner_term_never_zero",
    "invert_matrix",
    "is_irreducible",
    "is_permutation_bruteforce",
    "keygen",
    "pad_message",
    "random_invertible",
    "rank",
    "relation_residual",
    "sign",
    "solve_linear",
    "unpad_message",
    "verify",
]
