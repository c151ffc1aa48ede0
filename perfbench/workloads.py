"""The benchmark's workloads: generated inputs, checked operations, units.

A unit is one closed-loop step of a single client: it draws its inputs
from a seeded random.Random, runs ld2 operations one after another, checks
every result, and records each operation's wall time under its kind.  A
workload interleaves units of several kinds at fixed time shares; its
primary kind is the one the workload exists for and the one the traced run
replays.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Every workload's fixed key pair comes from this seed ("LD2_BNCH").
KEY_SEED = 0x4C44325F424E4348
# The seed whose outputs are pinned below.
DEFAULT_SEED = 1
# Decryption is about 5x faster than encryption, so each ciphertext is
# decrypted several times to give decrypt_kib_s a comparable window.
DEC_REPEATS = 4
# CLI signs and valid verifies per CLI unit; a sign is a few milliseconds,
# a verify at n = 129 about 0.4 s (key parsing).
CLI_SIGNS = 8
CLI_VERIFIES = 2
# A forgery fails at the first failing equation, after 1, 2, 3, ...
# evaluations with probability 1/2, 1/4, 1/8, ..., so single rejections
# have no stable median.  Each rejection sample is the mean of FORGERIES
# one-bit forgeries of the same signature.
FORGERIES = 8


# The machine's speed drifts by up to 1.5x over seconds to minutes when
# other tenants load it, on CPU time as much as on wall time.  So a fixed
# probe runs before any operation that starts PROBE_EVERY_S or more after
# the last probe, and each operation's time is scaled by PROBE_REFERENCE_S
# over the median probe within PROBE_WINDOW_S of it: times read as on a
# machine where the probe takes PROBE_REFERENCE_S.  Raw times stay in the
# report.
PROBE_REFERENCE_S = 0.003
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
_PROBE_RNG = random.Random("probe")
_PROBE_ROWS = tuple(_PROBE_RNG.getrandbits(129) for _ in range(129))
_PROBE_TABLE = tuple(tuple(_PROBE_RNG.getrandbits(129) for _ in range(129)) for _ in range(64))


def probe() -> float:
    """Wall time of a fixed pure-Python GF(2) workload: Gauss-Jordan
    elimination of a 129 x 129 matrix, then parities of a vector against
    64 x 129 rows (about 0.5 MB, like evaluating public equations).  It is
    benchmark code, so no change to ld2 moves it."""
    start = time.perf_counter()
    rows = list(_PROBE_ROWS)
    size = len(rows)
    for col in range(size):
        pivot = next((i for i in range(col, size) if rows[i] >> col & 1), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        for i in range(size):
            if i != col and rows[i] >> col & 1:
                rows[i] ^= lead
    x = rows[0] | 1
    parity = 0
    for table_rows in _PROBE_TABLE:
        for row in table_rows:
            parity ^= (row & x).bit_count() & 1
    return time.perf_counter() - start


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    primary: str
    shares: dict  # unit kind -> share of the measured window
    trace_units: int  # primary units the traced run replays


SPECS = {
    spec.name: spec
    for spec in (
        Spec("message-129", 129, "message", {"message": 0.6, "cli": 0.25, "signature": 0.15}, 3),
        Spec(
            "signature-65",
            65,
            "signature",
            {"signature": 0.55, "message": 0.25, "cli": 0.1, "lifecycle": 0.1},
            2000,
        ),
        Spec("keys-129", 129, "lifecycle", {"lifecycle": 0.55, "message": 0.25, "signature": 0.2}, 2),
    )
}

# SHA-256 of the outputs the default seed produces at each block size:
# the fixed key pair's files, and the ciphertexts and signatures of the
# golden inputs.  A change that alters any output fails the benchmark.
PINS = {
    7: {
        "secret_key": "3fe69a69215aba5b1059b52bd12da5b46fed8bfe424f7c2f8b6da81cf3b56c0b",
        "public_key": "4047fe9e4e4209899f6c9b979d745fe0b61536eaf43c5c9d740d63a35e241776",
        "ciphertexts": "17535e026296958dd3d2404faab44959f3e66255827c206ac8b0d4cce8f5de8f",
        "signatures": "44b173e68a6f20940afb4f0924790de969b8df85323c929a9149d0fd955fbe2c",
    },
    33: {
        "secret_key": "b35f87a4823ba051b2b5203b0b14184f28ebf67768c5b72e7024534ce8ae6d85",
        "public_key": "ab5bed3117d38e4cc98bc40a26a100ddf0d4d887b601adc3efa1bec23c2bc944",
        "ciphertexts": "26a52ee1b4507e597bff567fd3ed210e6363a7740326825c6381cc70b26275ae",
        "signatures": "95304701703c0448c4e9130613beb1722e5afd7c2dbd923b72d4fb0855ec8bfa",
    },
    65: {
        "secret_key": "4b092c2fb7168140c23476649e525d77a7a89700ee0640c3f67fb60bd20923f0",
        "public_key": "bfee0ded24f3539d50ae01d394019a3049adf6e0f25eacf6200f20751ac13476",
        "ciphertexts": "19341fe324b1dfa76fbeb63c9cf63f9f6a7247b40bcf405d4b188e8b013a18c7",
        "signatures": "55f3b1bea4a60237e6ba6da8c5b117c36868755057cca106c18cb00a35f77fbc",
    },
    129: {
        "secret_key": "5621d7bb6dc51505ec5d7bedcf16700083fbf3c8ac99141ff4c756c6a6891878",
        "public_key": "57009053c747685ec5b04a3e687b3410754ff0eb982ee7dca237e4841a5fabdf",
        "ciphertexts": "f80cf3615f08d96cff2eb1558d900bf99f8c83563085f4cebc6e38a294ab0922",
        "signatures": "13a6939078d53f245b4cda21fd9ed539d02aa6be54b3c04e1ecbd197877c721d",
    },
}


class Run:
    """State of one benchmark process: the ld2 modules, the fixed key pair,
    per-kind operation times, metric samples and the failure count."""

    def __init__(self, n: int, workdir: Path):
        self.n = n
        self.workdir = workdir
        self.ld2 = None
        self.cli = None
        self.sk = None
        self.pk = None
        self.key_files = (workdir / "fixed.sec", workdir / "fixed.pub")
        self.tracer = None
        self.spans: dict[str, list[tuple[float, float]]] = {}  # kind -> passing ops
        self.rounds: list[tuple[list, list, int]] = []  # encrypt, decrypt spans, bytes
        self.probe_at: list[float] = []
        self.probe_s: list[float] = []
        self._probed_at = -math.inf
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def probe_if_due(self) -> None:
        if time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self.probe_at.append(time.perf_counter())
            self.probe_s.append(probe())
            self._probed_at = time.perf_counter()

    def scaled(self, span: tuple[float, float]) -> float:
        """The span's duration scaled by the probes within PROBE_WINDOW_S."""
        start, end = span
        lo = bisect.bisect_left(self.probe_at, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.probe_at, end + PROBE_WINDOW_S)
        window = self.probe_s[lo:hi] or self.probe_s
        return (end - start) * PROBE_REFERENCE_S / statistics.median(window)

    def times(self, kind: str) -> list[float]:
        return [self.scaled(span) for span in self.spans.get(kind, ())]

    def add_span(self, kind: str, span: tuple[float, float]) -> None:
        self.spans.setdefault(kind, []).append(span)

    def op(self, kind: str, check, fn, *args):
        """Run one operation and check its result with check(result).

        Returns (ok, result, span), span being (start, end) or None.  A
        raised exception or a failed check counts as a failure, and only
        passing operations join the samples.
        """
        self.probe_if_due()
        self.attempted += 1
        if self.tracer:
            self.tracer.begin_op(kind)
        start = time.perf_counter()
        try:
            result = fn(*args)
            span = (start, time.perf_counter())
        except Exception:  # counted and reported, the loop goes on
            result, span = None, None
            error = traceback.format_exc(limit=3)
        finally:
            if self.tracer:
                self.tracer.end_op()
        if span is not None:
            if check(result):
                self.add_span(kind, span)
                return True, result, span
            error = f"unexpected result {result!r:.200}"
        self.fail(f"{kind}: {error}")
        return False, result, None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def cli_call(self, argv) -> tuple[int, str]:
        """Exit code and standard output of an in-process `ld2` command."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue()


def equals(expected):
    return lambda result: result == expected


def save_keys(ld2, sk, pk, paths) -> None:
    paths[0].write_text(ld2.encode_key(sk))
    paths[1].write_text(ld2.encode_key(pk))


def load_key(ld2, path: Path):
    return ld2.decode_key(path.read_text())


def generate_keys(run: Run, seed: int, paths):
    """keygen and key_save operations; returns the pair, or None on failure."""
    n = run.n
    ok, pair, _ = run.op(
        "keygen", lambda p: p[0].field.n == n and p[1].n == n, run.ld2.keygen, n, seed
    )
    if not ok:
        return None
    ok, _, _ = run.op("key_save", lambda r: True, save_keys, run.ld2, *pair, paths)
    return pair if ok else None


def message_unit(run: Run, rng: random.Random) -> None:
    """Encrypt and decrypt one round of the length mix.

    The round holds an empty, a sub-block, a block-aligned (a multiple of n
    bits, so padding adds a whole block) and a multi-KiB message.  Each
    decryption must return the plaintext.  One round gives one
    encrypt_kib_s and one decrypt_kib_s sample.
    """
    n = run.n
    block_bytes = (n + 7) // 8
    lengths = (
        0,
        rng.randint(1, max(1, (n - 1) // 8)),
        n * rng.randint(1, 3),
        rng.randint(2048, 3072),
    )
    encrypt_spans, decrypt_spans = [], []
    total = 0
    whole = True
    for length in lengths:
        message = rng.randbytes(length)
        size = -(-(8 * length + 1) // n) * block_bytes
        ok, ciphertext, span = run.op(
            "encrypt_message",
            lambda c: isinstance(c, bytes) and len(c) == size,
            run.ld2.encrypt_message,
            run.pk,
            message,
        )
        if not ok:
            whole = False
            continue
        encrypt_spans.append(span)
        total += length
        for _ in range(DEC_REPEATS):
            ok, _, span = run.op(
                "decrypt_message", equals(message), run.ld2.decrypt_message, run.sk, ciphertext
            )
            whole = whole and ok
            decrypt_spans.append(span)
    if whole:
        run.rounds.append((encrypt_spans, decrypt_spans, total))


def verify_all(ld2, pk, digest: int, signatures) -> list[bool]:
    return [ld2.verify(pk, digest, signature) for signature in signatures]


def signature_unit(run: Run, rng: random.Random) -> None:
    """Sign a digest, verify the signature, and verify FORGERIES one-bit
    forgeries of it, each of which must be rejected."""
    n = run.n
    digest = rng.getrandbits(n)
    ok, signature, _ = run.op(
        "sign", lambda s: 0 <= s < 1 << n, run.ld2.sign, run.sk, digest
    )
    if not ok:
        return
    run.op("verify_valid", lambda r: r is True, run.ld2.verify, run.pk, digest, signature)
    forged = [signature ^ (1 << rng.randrange(n)) for _ in range(FORGERIES)]
    run.op(
        "verify_forged",
        equals([False] * FORGERIES),
        verify_all,
        run.ld2,
        run.pk,
        digest,
        forged,
    )


def _reference_sign(run: Run, sk, digest: int):
    """The library's signature of digest, or None if signing failed."""
    n = run.n
    ok, signature, _ = run.op(
        "reference_sign", lambda s: 0 <= s < 1 << n, run.ld2.sign, sk, digest
    )
    return signature if ok else None


def _cli_unit(run: Run, rng: random.Random, sk, paths) -> None:
    """CLI sign, verify of valid signatures and verify of one forgery,
    against key files on disk; expected signatures come from the library."""
    n = run.n
    secret, public = (str(p) for p in paths)
    hex_of = run.ld2.bits_to_hex
    for _ in range(CLI_SIGNS):
        digest = rng.getrandbits(n)
        signature = _reference_sign(run, sk, digest)
        if signature is not None:
            run.op(
                "cli_sign",
                equals((0, hex_of(signature, n) + "\n")),
                run.cli_call,
                ["sign", "--secret", secret, "--digest", hex_of(digest, n)],
            )
    for i in range(CLI_VERIFIES):
        digest = rng.getrandbits(n)
        signature = _reference_sign(run, sk, digest)
        if signature is None:
            continue
        verify = ["verify", "--public", public, "--digest", hex_of(digest, n), "--sig"]
        run.op(
            "cli_verify_valid",
            equals((0, "valid\n")),
            run.cli_call,
            verify + [hex_of(signature, n)],
        )
        if i == 0:
            forged = hex_of(signature ^ (1 << rng.randrange(n)), n)
            run.op("cli_verify_forged", equals((2, "invalid\n")), run.cli_call, verify + [forged])


def cli_unit(run: Run, rng: random.Random) -> None:
    """The CLI against the fixed key pair's files."""
    _cli_unit(run, rng, run.sk, run.key_files)


def lifecycle_unit(run: Run, rng: random.Random) -> None:
    """A fresh key pair: keygen, write both files, read them back, then
    use them from the CLI."""
    paths = (run.workdir / "fresh.sec", run.workdir / "fresh.pub")
    pair = generate_keys(run, rng.getrandbits(64), paths)
    if pair is None:
        return
    sk, pk = pair
    run.op("load_secret", equals(sk), load_key, run.ld2, paths[0])
    run.op("load_public", equals(pk), load_key, run.ld2, paths[1])
    _cli_unit(run, rng, sk, paths)


UNITS = {
    "message": message_unit,
    "signature": signature_unit,
    "cli": cli_unit,
    "lifecycle": lifecycle_unit,
}


def golden_digests(run: Run) -> dict[str, str]:
    """SHA-256 of the fixed key files and of the outputs for the default
    seed's golden inputs: three messages and eight digests."""
    n = run.n
    rng = random.Random(f"golden:{DEFAULT_SEED}")
    messages = (b"", rng.randbytes(max(1, (n - 1) // 8)), rng.randbytes(n))
    digests = [rng.getrandbits(n) for _ in range(8)]
    outputs = {
        "secret_key": run.key_files[0].read_bytes(),
        "public_key": run.key_files[1].read_bytes(),
        "ciphertexts": b"".join(run.ld2.encrypt_message(run.pk, m) for m in messages),
        "signatures": "".join(
            run.ld2.bits_to_hex(run.ld2.sign(run.sk, d), n) for d in digests
        ).encode(),
    }
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def check_pins(run: Run) -> dict:
    """Compare the golden digests with PINS; each pin is one operation."""
    actual = golden_digests(run)
    pinned = PINS.get(run.n)
    if pinned is None:
        return {"pinned": False, "actual": actual}
    for name, digest in actual.items():
        run.attempted += 1
        if pinned[name] != digest:
            run.fail(f"pinned {name} digest changed at n={run.n}")
    return {"pinned": True, "actual": actual, "match": actual == pinned}
