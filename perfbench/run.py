#!/usr/bin/env python3
"""ld2 benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload message-129 --seed 7 --seconds 25 --trace 0

The untraced run (--trace 0) sets up SETUPS times (a fresh import of ld2,
keygen of the workload's fixed key pair and writing its files), checks the
pinned output digests, then interleaves the workload's units for --seconds
and prints every end-to-end metric.  The traced run (--trace 1) sets up
once under the tracer, replays a fixed number of the workload's primary
units untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  --n runs a workload at another block size (toy sizes in
the smoke test, the baseline table in table.py); pins exist only for the
sizes in workloads.PINS.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  A full report (units, sample counts,
quartiles and tails, the machine and the source revision) is written to
.perfbench/ at the repository root, with the spans of a traced run.  The
exit code is 0 when every operation passed its check, 1 when one failed,
and 2 when the ld2 sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS, MODULES, Tracer
from workloads import (
    DEC_REPEATS,
    DEFAULT_SEED,
    FORGERIES,
    KEY_SEED,
    PROBE_REFERENCE_S,
    SPECS,
    UNITS,
    Run,
    check_pins,
    generate_keys,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 5

# end-to-end latency -> (operation kind, scale, unit); the two throughputs
# come from the message rounds
LATENCIES = {
    "setup_s": ("setup", 1.0, "s"),
    "sign_ms_p50": ("sign", 1e3, "ms"),
    "verify_ms_p50": ("verify_valid", 1e3, "ms"),
    "reject_us_p50": ("verify_forged", 1e6 / FORGERIES, "us"),
    "keygen_s": ("keygen", 1.0, "s"),
    "key_save_ms": ("key_save", 1e3, "ms"),
    "cli_verify_s": ("cli_verify_valid", 1.0, "s"),
    "cli_sign_ms": ("cli_sign", 1e3, "ms"),
}

# layers whose set-up self time is reported as setup.<layer>.self_s
SETUP_LAYERS = (
    "keys.derive_public_key",
    "keys.encode_key",
    "gf2n.Field.mul",
    "gf2n.Field.sqr",
    "gf2n.apply_columns",
    "linalg.Prng.bits",
    "linalg.rank",
    "linalg.invert_matrix",
)


def import_ld2():
    """A fresh import of ld2 and ld2.cli, as a new process would do it."""
    for name in [m for m in sys.modules if m == "ld2" or m.startswith("ld2.")]:
        del sys.modules[name]
    ld2 = importlib.import_module("ld2")
    if not Path(ld2.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported ld2 from {ld2.__file__}, not from {SRC}")
    return ld2, importlib.import_module("ld2.cli")


@contextlib.contextmanager
def tracing(run: Run, tracer: Tracer):
    """Install the tracer on run's ld2 and mark run's operations with it."""
    tracer.install(run.ld2)
    run.tracer = tracer
    try:
        yield
    finally:
        run.tracer = None
        tracer.uninstall()


def setup(run: Run, tracer: Tracer | None = None) -> float:
    """Import ld2, generate the fixed key pair and write its files, traced
    after the import when a tracer is given; returns the import time."""
    start = time.perf_counter()
    run.ld2, run.cli = import_ld2()
    import_s = time.perf_counter() - start
    with tracing(run, tracer) if tracer else contextlib.nullcontext():
        pair = generate_keys(run, KEY_SEED, run.key_files)
    if pair is None:
        raise SystemExit("perfbench: the fixed key pair could not be generated")
    run.sk, run.pk = pair
    return import_s


def describe(samples, tail: bool) -> dict:
    """Median, quartiles, count and (for latencies) the highest of p99.9,
    p99 and p90 that has at least ten samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)

    def at(percent: float) -> float:
        return ordered[min(count - 1, int(percent / 100 * count))]

    out = {"samples": count, "p25": at(25), "p50": statistics.median(ordered), "p75": at(75)}
    if tail:
        out["tail"] = next(
            ({"percentile": p, "value": at(p)} for p in (99.9, 99, 90) if count * (100 - p) >= 1000),
            None,
        )
    return out


def end_to_end_metrics(run: Run) -> dict:
    metrics = {}

    def add(name: str, values: list[float], unit: str, tail: bool) -> None:
        if values:
            stats = describe(values, tail)
            metrics[name] = {"value": stats["p50"], "unit": unit, **stats}

    rounds = run.rounds
    add(
        "encrypt_kib_s",
        [total / 1024 / sum(map(run.scaled, enc)) for enc, _, total in rounds],
        "KiB/s",
        False,
    )
    add(
        "decrypt_kib_s",
        [DEC_REPEATS * total / 1024 / sum(map(run.scaled, dec)) for _, dec, total in rounds],
        "KiB/s",
        False,
    )
    for name, (kind, scale, unit) in LATENCIES.items():
        add(name, [t * scale for t in run.times(kind)], unit, True)
    return metrics


def measure(run: Run, spec, seed: int, seconds: float) -> dict:
    """The untraced run: SETUPS set-ups, then the unit mix for `seconds`.

    Each step runs the unit kind furthest below its share of the time spent
    so far, so a slow period on the machine hits every kind alike.
    """
    for _ in range(SETUPS):
        run.probe_if_due()
        start = time.perf_counter()
        setup(run)
        run.add_span("setup", (start, time.perf_counter()))
    pins = check_pins(run)
    shares = spec.shares
    rngs = {kind: random.Random(f"{spec.name}:{kind}:{seed}") for kind in shares}
    spent = dict.fromkeys(shares, 0.0)
    units = dict.fromkeys(shares, 0)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not all(units.values()):
        kind = min(shares, key=lambda k: spent[k] / shares[k])
        start = time.perf_counter()
        UNITS[kind](run, rngs[kind])
        spent[kind] += time.perf_counter() - start
        units[kind] += 1
    run.probe_if_due()  # the last operations' window
    return {
        "pins": pins,
        "units": {k: {"count": units[k], "seconds": spent[k]} for k in shares},
        "metrics": end_to_end_metrics(run),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, setup_summary: dict, import_s: float, overhead: float) -> dict:
    """Per-layer metrics of the traced pass, plus the traced set-up."""
    layers = summary["layers"]

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    for module in MODULES:
        total = sum(self_s(layer) for layer in LAYERS if layer.startswith(module + "."))
        metrics[f"{module}.self_s"] = (total, "s")

    def per_call(kind_part: str) -> float:
        by_op = [c for kind, c in summary["calls_by_op"].items() if kind_part in kind]
        evaluations = sum(c.get("keys.QuadraticEquation.evaluate", 0) for c in by_op)
        return _ratio(evaluations, sum(c.get("keys.PublicKey.holds", 0) for c in by_op))

    metrics["keys.holds.equations_per_call.valid"] = (per_call("verify_valid"), "ratio")
    metrics["keys.holds.equations_per_call.forged"] = (per_call("verify_forged"), "ratio")
    metrics["cipher.decrypt_block.residuals_per_block"] = (
        _ratio(calls("keys.relation_residual"), calls("cipher.decrypt_block")),
        "ratio",
    )
    metrics["linalg.random_invertible.attempts_per_matrix"] = (
        _ratio(calls("linalg.rank"), calls("linalg.random_invertible")),
        "ratio",
    )
    setup_layers = setup_summary["layers"]
    metrics["setup.import_s"] = (import_s, "s")
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = (setup_layers.get(layer, {}).get("self_s", 0.0), "s")
    metrics["setup.linalg.random_invertible.attempts_per_matrix"] = (
        _ratio(
            setup_layers.get("linalg.rank", {}).get("calls", 0),
            setup_layers.get("linalg.random_invertible", {}).get("calls", 0),
        ),
        "ratio",
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure_traced(run: Run, spec, seed: int, spans_path: Path) -> dict:
    """The traced run: a traced set-up, then trace_units primary units
    untraced and the same units again traced."""
    setup_tracer = Tracer()
    import_s = setup(run, setup_tracer)
    pins = check_pins(run)

    def replay() -> float:
        rng = random.Random(f"{spec.name}:{spec.primary}:{seed}")
        start = time.perf_counter()
        for _ in range(spec.trace_units):
            UNITS[spec.primary](run, rng)
        return time.perf_counter() - start

    def ops_seconds() -> float:
        return sum(run.scaled(span) for spans in run.spans.values() for span in spans)

    run.spans = {}
    untraced_s = replay()
    ops_untraced = {
        kind: {
            "count": len(spans),
            "p50_s": statistics.median(end - start for start, end in spans),
            "p50_scaled_s": statistics.median(run.times(kind)),
        }
        for kind, spans in run.spans.items()
    }
    untraced_ops_s = ops_seconds()
    run.spans = {}
    tracer = Tracer()
    with tracing(run, tracer):
        traced_s = replay()
    run.probe_if_due()
    traced_ops_s = ops_seconds()

    summary = tracer.summary()
    setup_summary = setup_tracer.summary()
    # from the probe-scaled operation times, so machine drift between the
    # two replays does not read as overhead
    overhead = traced_ops_s / untraced_ops_s - 1
    spans_path.unlink(missing_ok=True)
    setup_tracer.write(spans_path, "setup")
    tracer.write(spans_path, "run")
    return {
        "pins": pins,
        "units": {spec.primary: {"count": spec.trace_units}},
        "overhead": {
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "untraced_ops_s": untraced_ops_s,
            "traced_ops_s": traced_ops_s,
            "share": overhead,
        },
        "ops_untraced": ops_untraced,
        "run": summary,
        "setup": setup_summary,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": layer_metrics(summary, setup_summary, import_s, overhead),
    }


def source_revision() -> dict:
    """The git commit when the checkout has one, and a digest of the ld2
    sources, which identifies the code either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ld2").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, n: int | None = None):
    """Run one workload in this process; returns the full report."""
    spec = SPECS[workload]
    n = n or spec.n
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    label = f"{workload}-n{n}-seed{seed}-trace{int(trace)}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    run = Run(n, workdir)
    try:
        if trace:
            result = measure_traced(run, spec, seed, OUT / f"{label}-spans.tsv.gz")
        else:
            result = measure(run, spec, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        sys.path.remove(str(SRC))
    report = {
        "workload": workload,
        "n": n,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "clients": 1,
        "loop": "closed",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        **source_revision(),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "failures": run.failures,
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_s": describe(run.probe_s, tail=False) if run.probe_s else None,
        "raw_p50_s": {
            kind: statistics.median(end - start for start, end in spans)
            for kind, spans in run.spans.items()
        },
        **result,
    }
    report_path = OUT / f"{label}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    report["report_file"] = str(report_path.relative_to(ROOT))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="block size (odd, >= 3); default: the workload's")
    args = parser.parse_args(argv)
    if args.n is not None and (args.n < 3 or args.n % 2 == 0):
        parser.error("--n must be odd and at least 3")
    if not (SRC / "ld2" / "__init__.py").is_file():
        print(f"perfbench: no ld2 sources under {SRC}", file=sys.stderr)
        return 2

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    for name, metric in report["metrics"].items():
        samples = metric.get("samples")
        extra = f"  (median of {samples})" if samples else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{extra}")
    print(
        f"error_rate {report['error_rate']!r} "
        f"({report['failed']} failed of {report['attempted']} attempted)"
    )
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"report {report['report_file']}")
    summary = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in report["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
