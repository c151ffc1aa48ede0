"""Command-line driver: key lifecycle, encryption, signatures, self-test,
benchmarks.

Exit codes: 0 success, 1 usage/format/IO error (one-line diagnostic on
stderr), 2 failed signature verification.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path

from .cipher import (
    decrypt_block,
    decrypt_message,
    encrypt_block,
    encrypt_message,
    sign,
    verify,
)
from .gf2n import Field, bits_to_hex, hex_to_bits, packed_size
from .keys import (
    PublicKey,
    QuadraticEquation,
    SecretKey,
    decode_key,
    derive_public_key,
    encode_key,
    fingerprint,
    keygen,
    relation_residual,
    text_fingerprint,
)
from .linalg import AffineMap, BitMatrix, Prng

# "LD2_SEED" in ASCII; used when --seed is omitted (with a warning)
DEFAULT_SEED = 0x4C44325F53454544
# largest block size keygen accepts; a larger --n is most likely a typo
MAX_N = 257


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; we reserve 2 for
    # verification failure, so route usage errors through CliError instead
    def error(self, message):
        raise CliError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The ld2 parser, built once per process: building it costs about 30
    times what parsing one command line does.  It holds no state between
    calls, and the handlers look up what they call at call time."""
    parser = _Parser(prog="ld2", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    p.add_argument("--n", type=int, required=True, help=f"block size (odd, 3..{MAX_N})")
    p.add_argument("--seed", help="64-bit seed in hex (default: 4c44325f53454544, insecure)")
    p.add_argument("--secret-out", required=True)
    p.add_argument("--public-out", required=True)
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file or a single block")
    p.add_argument("--public", required=True)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.add_argument("--block", help="one block as hex instead of file mode")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a file or a single block")
    p.add_argument("--secret", required=True)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.add_argument("--block", help="one block as hex instead of file mode")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("sign", help="sign an n-bit digest")
    p.add_argument("--secret", required=True)
    p.add_argument("--digest", required=True, help="digest block as hex")
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("verify", help="verify a signature (exit 2 if invalid)")
    p.add_argument("--public", required=True)
    p.add_argument("--digest", required=True)
    p.add_argument("--sig", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("inspect", help="print key parameters and sizes")
    p.add_argument("--key", required=True)
    p.add_argument("--reveal", action="store_true", help="print secret values")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("selftest", help="run the built-in toy fixture end to end")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("bench", help="report keygen/encrypt/decrypt timings")
    p.add_argument("--n-list", default="17,33,65,129")
    p.add_argument("--reps", type=int, default=20)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_seed(text: str) -> int:
    try:
        seed = int(text, 16)
    except ValueError as exc:
        raise CliError(f"seed must be hex: {text!r}") from exc
    if not 0 <= seed < 1 << 64:
        raise CliError("seed must fit in 64 bits")
    return seed


def _read_key_file(path: str) -> str:
    """A key file's text as it is on disk: with no newline translation, a
    CR LF or CR line end reaches decode_key, which rejects it.  The text is
    read in pieces and joined once, so that it is the only large block a
    read allocates.  Reading the file whole takes two, its bytes and then
    its text, and a process that calls main again and again could find no
    hole for both: the heap then grew for them on each call and shrank when
    they were freed, about 370 page faults a read of a public key at n =
    129.  A decoding error is raised by a whole read, so that its position
    counts from the start of the file, not of a piece."""
    with open(path, newline="") as file:
        try:
            return "".join(iter(functools.partial(file.read, 1 << 16), ""))
        except UnicodeDecodeError:
            file.seek(0)
            return file.read()


def _key_file_text(path: str) -> str:
    """_read_key_file(path); an error decoding the file names it."""
    try:
        return _read_key_file(path)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_key(path: str, cls):
    key = decode_key(_key_file_text(path))
    if not isinstance(key, cls):
        kind = "public" if cls is PublicKey else "secret"
        raise CliError(f"{path} is not a {kind} key")
    return key


def _hex_arg(option: str, text: str, n: int) -> int:
    """The n-bit block that a hex option holds; an error names the option."""
    try:
        return hex_to_bits(text, n)
    except ValueError as exc:
        digits = 2 * packed_size(n)
        raise CliError(f"{option}: {exc} (n = {n} takes {digits} hex digits)") from exc


def _check_n(n: int) -> None:
    if n < 3 or n % 2 == 0 or n > MAX_N:
        raise CliError(f"n must be odd, at least 3 and at most {MAX_N}, got {n}")


def _cmd_keygen(args) -> int:
    _check_n(args.n)
    if args.seed is None:
        seed = DEFAULT_SEED
        print(
            "warning: no --seed given; using the default seed "
            "(insecure, for demos and tests only)",
            file=sys.stderr,
        )
    else:
        seed = _parse_seed(args.seed)
    sk, pk = keygen(args.n, seed)
    # newline="": the files hold encode_key's text byte for byte everywhere
    Path(args.secret_out).write_text(encode_key(sk), newline="")
    Path(args.public_out).write_text(encode_key(pk), newline="")
    return 0


def _block_or_file(args, key, n: int, block_fn, message_fn) -> int:
    """Apply block_fn(key, block) to --block, or message_fn(key, data) to
    the --in file, writing --out."""
    if (args.block is None) == (args.infile is None):
        raise CliError("give exactly one of --block or --in/--out")
    if args.infile is None and args.outfile is not None:
        raise CliError("--out needs --in; --block prints to stdout")
    if args.block is not None:
        print(bits_to_hex(block_fn(key, _hex_arg("--block", args.block, n)), n))
        return 0
    if args.outfile is None:
        raise CliError("file mode needs --out")
    data = Path(args.infile).read_bytes()
    Path(args.outfile).write_bytes(message_fn(key, data))
    return 0


def _cmd_encrypt(args) -> int:
    pk = _load_key(args.public, PublicKey)
    return _block_or_file(args, pk, pk.n, encrypt_block, encrypt_message)


def _cmd_decrypt(args) -> int:
    sk = _load_key(args.secret, SecretKey)
    return _block_or_file(args, sk, sk.field.n, decrypt_block, decrypt_message)


def _cmd_sign(args) -> int:
    sk = _load_key(args.secret, SecretKey)
    n = sk.field.n
    digest = _hex_arg("--digest", args.digest, n)
    print(bits_to_hex(sign(sk, digest), n))
    return 0


def _cmd_verify(args) -> int:
    pk = _load_key(args.public, PublicKey)
    digest = _hex_arg("--digest", args.digest, pk.n)
    signature = _hex_arg("--sig", args.sig, pk.n)
    if verify(pk, digest, signature):
        print("valid")
        return 0
    print("invalid")
    return 2


def _print_fields(fields) -> None:
    for field in fields:
        name, _, value = field.partition("=")
        print(f"{name}: {value}")


def _cmd_inspect(args) -> int:
    text = _key_file_text(args.key)
    key = decode_key(text)
    public = isinstance(key, PublicKey)
    # decode_key accepts only canonical text, so its lines are the key's:
    # "n=<n> m=<m>", "poly=<hex>", then one "name=value" per secret value.
    # A public key's 5n equation lines are never printed, so only its
    # header is split off.
    lines = (text[:text.index("\neq1.")] if public else text).split("\n")
    print(f"type: {'public' if public else 'secret'}")
    _print_fields(lines[1].split())
    print(f"modulus: {lines[2].partition('=')[2]}")
    # a secret key is named by its public key, which reveals nothing secret;
    # a public key's text is encode_key's, so it is hashed as read
    name = text_fingerprint(text) if public else fingerprint(derive_public_key(key))
    print(f"fingerprint: {name}")
    if public:
        print(f"equations: {key.n}")
        terms = sum(field.bit_count() for fields in key.fields for field in fields)
        print(f"terms: {terms}")
    elif args.reveal:
        _print_fields(lines[3:8])
    else:
        print("secret values hidden (pass --reveal to print them)")
    # canonical text is ASCII, one byte per character
    print(f"size: {len(text)} bytes")
    return 0


def format_equation(eq: QuadraticEquation) -> str:
    """Human-readable rendering, e.g. 'x2*x3 + x2*y2 + x1 + 1 = 0'."""
    xx, xy, x, y, constant = eq.terms()
    parts = (
        [f"x{j}*x{k}" for j, k in xx]
        + [f"x{j}*y{k}" for j, k in xy]
        + [f"x{j}" for j in x]
        + [f"y{k}" for k in y]
        + (["1"] if constant else [])
    )
    return (" + ".join(parts) if parts else "0") + " = 0"


# Toy fixture: n = 3 over x^3 + x + 1 with alpha = 1 + g + g^2 and the
# fixed affine maps below; the expected public system is known.
TOY_ALPHA = 0b111
TOY_A1 = (0b011, 0b110, 0b100)
TOY_C1 = 0b101
TOY_A2 = (0b111, 0b110, 0b100)
TOY_C2 = 0b010
TOY_EQUATIONS = (
    dict(xx=((2, 3),), xy=((2, 2), (2, 3), (3, 3)), x=(1, 2), y=(1, 2, 3), constant=0),
    dict(xx=((1, 3), (2, 3)), xy=((2, 2), (3, 1), (3, 2)), x=(2, 3), y=(2, 3), constant=1),
    dict(xx=((1, 2),), xy=((2, 1), (2, 2), (3, 2), (3, 3)), x=(2,), y=(3,), constant=1),
)


def toy_secret_key() -> SecretKey:
    s = AffineMap(BitMatrix(TOY_A1, 3), TOY_C1)
    t = AffineMap(BitMatrix(TOY_A2, 3), TOY_C2)
    return SecretKey(Field(3), s, t, TOY_ALPHA)


def _cmd_selftest(args) -> int:
    sk = toy_secret_key()
    pk = derive_public_key(sk)
    failures = []

    for i, eq in enumerate(pk.equations):
        print(f"eq{i + 1}: {format_equation(eq)}")
    expected = tuple(
        QuadraticEquation.from_terms(3, **terms) for terms in TOY_EQUATIONS
    )
    if pk.equations != expected:
        failures.append("public equations differ from the expected system")

    for x in range(8):
        for y in range(8):
            public_zero = pk.holds(x, y)
            residual_zero = relation_residual(sk, x, y) == 0
            if public_zero != residual_zero:
                failures.append(f"equations and relation disagree at x={x} y={y}")
    if encrypt_block(pk, 0b000) != 0b101:
        failures.append("known-answer encryption failed")
    if decrypt_block(sk, 0b101) != 0b000:
        failures.append("known-answer decryption failed")
    for x in range(8):
        if decrypt_block(sk, encrypt_block(pk, x)) != x:
            failures.append(f"round trip failed at block {x}")

    if failures:
        for failure in failures:
            print(f"selftest: FAIL ({failure})")
        return 1
    print("selftest: PASS")
    return 0


def run_bench(n_list, reps: int, seed: int = DEFAULT_SEED) -> list[dict]:
    """Time keygen and per-block encrypt/decrypt for each n.

    The encrypt time is the mean over the first reps blocks of a fresh key,
    one encrypt_block call each.  Below K = n // 4 + 2 blocks
    (keys._certify_after) that is elimination on a system read from the
    key's fields, the cubic model's path; from the K-th block on it
    includes the table build and the certificate, and then one field
    inversion per block.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    results = []
    for n in n_list:
        start = time.perf_counter()
        sk, pk = keygen(n, seed)
        keygen_time = time.perf_counter() - start

        prng = Prng(seed)
        blocks = [prng.bits(n) for _ in range(reps)]
        start = time.perf_counter()
        ciphertexts = [encrypt_block(pk, block) for block in blocks]
        encrypt_time = (time.perf_counter() - start) / reps

        start = time.perf_counter()
        for ciphertext in ciphertexts:
            decrypt_block(sk, ciphertext)
        decrypt_time = (time.perf_counter() - start) / reps

        results.append(
            dict(n=n, keygen=keygen_time, encrypt=encrypt_time, decrypt=decrypt_time)
        )
    return results


def fitted_exponent(results) -> float:
    """Least-squares slope of log encrypt time against log n."""
    points = [(math.log(r["n"]), math.log(r["encrypt"])) for r in results]
    mean_x = sum(p[0] for p in points) / len(points)
    mean_y = sum(p[1] for p in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, y in points)
    return num / den


def print_bench_report(results) -> None:
    print(f"{'n':>5} {'keygen':>12} {'encrypt':>12} {'decrypt':>12}")
    for r in results:
        print(
            f"{r['n']:>5} {r['keygen']:>11.6f}s {r['encrypt']:>11.6f}s"
            f" {r['decrypt']:>11.6f}s"
        )
    if len(results) >= 2:
        for prev, cur in zip(results, results[1:]):
            ratio = cur["encrypt"] / prev["encrypt"]
            cubic = (cur["n"] / prev["n"]) ** 3
            print(
                f"encrypt growth n={prev['n']} -> {cur['n']}: "
                f"x{ratio:.1f} measured (cubic model of elimination predicts x{cubic:.1f})"
            )
        exponent = fitted_exponent(results)
        print(f"encrypt-time growth fits n^{exponent:.2f} (cubic model of elimination: 3.00;"
              f" a key solves by field inversion from block n // 4 + 2 on)")
        last = results[-1]
        faster = "yes" if last["decrypt"] < last["encrypt"] else "no"
        print(f"decrypt below encrypt at n={last['n']}: {faster}")


def _cmd_bench(args) -> int:
    try:
        n_list = [int(part) for part in args.n_list.split(",") if part]
    except ValueError as exc:
        raise CliError(f"bad --n-list: {exc}") from exc
    if not n_list:
        raise CliError("--n-list must name at least one size")
    for n in n_list:
        _check_n(n)
    if len(set(n_list)) < len(n_list):
        raise CliError("--n-list must not repeat a size")
    print_bench_report(run_bench(n_list, args.reps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
