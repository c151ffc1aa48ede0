"""In-memory span recording around the calls into each ld2 layer.

A Tracer wraps the public callables of the ld2 modules from the outside:
methods are replaced on their classes, and each module-level function is
replaced in every ld2 namespace that holds it, so a name imported with
``from .linalg import solve_linear`` is wrapped where ``ld2.cipher`` looks
it up.  ``uninstall`` restores the originals, so a run pays for tracing
only while a tracer is installed.

Spans live in flat arrays until the run ends: span i has a name, a parent
span (-1 for a root), the operation it belongs to (the benchmark's own root
span, which spans of one operation share), and start and end times.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from array import array

# Public callables timed per layer, as "<module>.<name>" or
# "<module>.<Class>.<method>" relative to the ld2 package.
LAYERS = (
    "gf2n.Field.mul",
    "gf2n.Field.sqr",
    "gf2n.Field.pow",
    "gf2n.apply_columns",
    "linalg.BitMatrix.mul_vec",
    "linalg.Prng.bits",
    "linalg.rank",
    "linalg.invert_matrix",
    "linalg.random_invertible",
    "linalg.solve_linear",
    "permutation.CentralMap.evaluate",
    "keys.QuadraticEquation.evaluate",
    "keys.PublicKey.holds",
    "keys.PublicKey.linear_system",
    "keys.relation_residual",
    "keys.derive_public_key",
    "keys.keygen",
    "keys.encode_key",
    "keys.decode_key",
    "cipher.pad_message",
    "cipher.unpad_message",
    "cipher.encrypt_block",
    "cipher.decrypt_candidates",
    "cipher.decrypt_block",
    "cipher.sign",
    "cipher.verify",
    "cipher.encrypt_message",
    "cipher.decrypt_message",
    "cli.main",
)

MODULES = ("gf2n", "linalg", "permutation", "keys", "cipher", "cli")


class Tracer:
    """Records spans for the ld2 calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_kinds: list[str] = []  # op id -> kind
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1])
        self.op_of.append(self._op)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, kind: str) -> None:
        """Open a root span for one benchmark operation of the given kind."""
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1
        self._open(self._name_id(f"op:{kind}"))

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def install(self, ld2) -> None:
        """Wrap every callable in LAYERS inside the given ld2 package."""
        modules = [ld2] + [getattr(ld2, m) for m in MODULES]
        for layer in LAYERS:
            module_name, *path = layer.split(".")
            owner = getattr(ld2, module_name)
            if len(path) == 2:
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                self._patch(cls, path[1], original, self._wrap(layer, original))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name and per-op-kind aggregates of the recorded spans.

        Returns {"layers": {name: {calls, total_s, self_s, p50_call_s}},
        "ops": {kind: {count, total_s, p50_s}},
        "calls_by_op": {kind: {name: calls}}}.  Self time is a span's
        duration minus the durations of its direct children.
        """
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            parent = self.parent_of[i]
            if parent >= 0:
                child[parent] += duration[i]
        per_name: dict[int, list[float]] = {}
        self_time: dict[int, float] = {}
        calls_by_op: dict[str, dict[str, int]] = {}
        for i in range(count):
            name_id = self.name_of[i]
            per_name.setdefault(name_id, []).append(duration[i])
            self_time[name_id] = self_time.get(name_id, 0.0) + duration[i] - child[i]
            op = self.op_of[i]
            if op >= 0:
                by_name = calls_by_op.setdefault(self.op_kinds[op], {})
                name = self.names[name_id]
                by_name[name] = by_name.get(name, 0) + 1
        layers = {}
        ops = {}
        for name_id, durations in per_name.items():
            name = self.names[name_id]
            entry = {
                "calls": len(durations),
                "total_s": sum(durations),
                "self_s": self_time[name_id],
                "p50_call_s": statistics.median(durations),
            }
            if name.startswith("op:"):
                ops[name[3:]] = {
                    "count": entry["calls"],
                    "total_s": entry["total_s"],
                    "p50_s": entry["p50_call_s"],
                }
            else:
                layers[name] = entry
        return {"layers": layers, "ops": ops, "calls_by_op": calls_by_op}

    def write(self, path, label: str) -> None:
        """Append the spans as tab-separated rows to a gzip file."""
        with gzip.open(path, "at", encoding="ascii") as out:
            for i in range(len(self.start)):
                op = self.op_of[i]
                out.write(
                    f"{label}\t{i}\t{self.parent_of[i]}\t{op}\t"
                    f"{self.op_kinds[op] if op >= 0 else ''}\t"
                    f"{self.names[self.name_of[i]]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )
