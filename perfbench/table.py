#!/usr/bin/env python3
"""Rebuild the ROADMAP baseline table from traced runs at any block sizes.

    python3 perfbench/table.py --n 33,65,129,257 [--seed 1]

For each n the three workloads run traced at that n (as run.py --trace 1
--n <n> would run them) in this process.  User-facing times come from the
untraced replay, layer times from the traced one; every cell is a median
per call.  The table is printed as markdown and written, with the full
reports, to .perfbench/table.json.  Not part of the gated benchmark:
n = 257 alone takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import OUT, run_workload
from workloads import DEFAULT_SEED

# column -> (workload, report section, key); "ops" cells are untraced
COLUMNS = {
    "keygen": ("keys-129", "ops", "keygen"),
    "derive pk": ("keys-129", "layers", "keys.derive_public_key"),
    "enc: build system": ("message-129", "layers", "keys.PublicKey.linear_system"),
    "enc: solve": ("message-129", "layers", "linalg.solve_linear"),
    "dec: candidates": ("message-129", "layers", "cipher.decrypt_candidates"),
    "dec: Field.pow": ("message-129", "layers", "gf2n.Field.pow"),
    "verify (valid sig)": ("signature-65", "ops", "verify_valid"),
    "pk decode": ("keys-129", "ops", "load_public"),
}


def cell(report: dict, section: str, key: str) -> float:
    if section == "ops":
        return report["ops_untraced"][key]["p50_s"]
    return report["run"]["layers"][key]["p50_call_s"]


def row(n: int, seed: int) -> dict:
    reports = {w: run_workload(w, seed, 0, True, n) for w in {c[0] for c in COLUMNS.values()}}
    bad = [w for w, r in reports.items() if not r["correct"]]
    if bad:
        raise SystemExit(f"table: failed operations in {bad} at n={n}")
    cells = {name: cell(reports[w], s, k) for name, (w, s, k) in COLUMNS.items()}
    message = reports["message-129"]["run"]["layers"]
    split = {
        "linear_system_self_over_solve_self": message["keys.PublicKey.linear_system"]["self_s"]
        / message["linalg.solve_linear"]["self_s"],
        "pow_share_of_candidates": message["gf2n.Field.pow"]["total_s"]
        / message["cipher.decrypt_candidates"]["total_s"],
    }
    return {"n": n, "seconds_per_call": cells, "split": split, "reports": reports}


def seconds(value: float) -> str:
    return f"{value:.2f} s" if value >= 1 else f"{value * 1e3:.2f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="33,65,129", help="comma-separated odd block sizes")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    sizes = [int(part) for part in args.n.split(",")]
    if any(n < 3 or n % 2 == 0 for n in sizes):
        parser.error("block sizes must be odd and at least 3")
    rows = [row(n, args.seed) for n in sizes]
    print("| n | " + " | ".join(COLUMNS) + " | build/solve | pow share |")
    print("|---" * (len(COLUMNS) + 3) + "|")
    for r in rows:
        values = " | ".join(seconds(v) for v in r["seconds_per_call"].values())
        split = r["split"]
        print(
            f"| {r['n']} | {values} | {split['linear_system_self_over_solve_self']:.1f}x"
            f" | {split['pow_share_of_candidates']:.0%} |"
        )
    OUT.mkdir(exist_ok=True)
    (OUT / "table.json").write_text(json.dumps(rows, indent=1) + "\n")
    print(f"report {OUT / 'table.json'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
