#!/usr/bin/env python3
"""Compare a fresh bench JSON against a committed baseline, exactly.

Usage: tools/bench_exact_diff.py <baseline.json> <fresh.json>

Gated (exit 1 on any difference or on a record missing from the fresh
run): every record whose unit is "cycle", "MAC" or "B", and every
"exactness_ok" marker. These are simulated quantities -- cycle counts,
useful MACs, byte counts -- and bit-exactness verdicts, so they must not
move when the code changes without meaning to change the model.

Every other record (wall-clock times, rates, speedups) depends on the host
and is printed side by side for information only.
"""
import json
import sys

EXACT_UNITS = {"cycle", "MAC", "B"}


def load(path):
    with open(path) as f:
        data = json.load(f)
    return data.get("bench"), {r["name"]: r for r in data["records"]}


def is_exact(record):
    return record.get("unit") in EXACT_UNITS or record["name"].endswith(
        "exactness_ok")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_bench, base = load(argv[1])
    fresh_bench, fresh = load(argv[2])
    failures = []
    if base_bench != fresh_bench:
        failures.append(f"bench name: {base_bench!r} != {fresh_bench!r}")

    n_exact = 0
    for name, rec in base.items():
        if not is_exact(rec):
            continue
        n_exact += 1
        got = fresh.get(name)
        if got is None:
            failures.append(f"{name}: missing from the fresh run")
        elif got["value"] != rec["value"] or got.get("unit") != rec.get("unit"):
            failures.append(f"{name}: {rec['value']} {rec.get('unit')} -> "
                            f"{got['value']} {got.get('unit')}")

    print(f"timed / informational records ({argv[1]} -> {argv[2]}):")
    for name, rec in base.items():
        if is_exact(rec):
            continue
        got = fresh.get(name)
        fresh_value = "missing" if got is None else got["value"]
        print(f"  {name}: {rec['value']} -> {fresh_value} {rec.get('unit', '')}")

    if failures:
        print(f"FAIL: {len(failures)} of {n_exact} exact records differ:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"OK: {n_exact} exact records identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
