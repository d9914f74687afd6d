#!/usr/bin/env python3
"""Compare two erpc_sim result envelopes.

    python3 tools/bench_diff.py A.json B.json

A and B are envelopes written by `erpc_sim <experiment> --out FILE`
(usually a committed baseline under bench/baseline/ and a fresh run).
Simulated content must match exactly: any difference in `digest`,
`events_by_layer` or `rows` is printed and makes the exit status 1.
Host measurements (`cpu_s`, `wall_s`, `peak_heap_mb`, every number in
the `host` section) are printed as B/A ratios; a ratio outside
1/TOLERANCE..TOLERANCE is flagged, but never fails the comparison, since
host time and memory depend on the machine (compare `host_cores`).
"""

import json
import sys

TOLERANCE = 1.5
HOST_KEYS = ("cpu_s", "wall_s", "peak_heap_mb")


def numbers(v, path=""):
    """Every number in a JSON value, keyed by its path."""
    if isinstance(v, bool):
        return
    if isinstance(v, (int, float)):
        yield path, v
    elif isinstance(v, dict):
        for k, x in v.items():
            yield from numbers(x, f"{path}.{k}" if path else k)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from numbers(x, f"{path}[{i}]")


def first_difference(a, b, path="rows"):
    if type(a) is not type(b):
        return path, a, b
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}.{k}", a.get(k), b.get(k)
            d = first_difference(a[k], b[k], f"{path}.{k}")
            if d:
                return d
    elif isinstance(a, list):
        if len(a) != len(b):
            return f"{path} (length)", len(a), len(b)
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_difference(x, y, f"{path}[{i}]")
            if d:
                return d
    elif a != b:
        return path, a, b
    return None


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        a = json.load(f)
    with open(sys.argv[2]) as f:
        b = json.load(f)
    name = f"{b.get('experiment')} (seed {b.get('seed')})"
    failed = False
    for key in ("digest", "events_by_layer"):
        if a.get(key) != b.get(key):
            print(f"DIFF {name} {key}: {a.get(key)} -> {b.get(key)}")
            failed = True
    d = first_difference(a.get("rows"), b.get("rows"))
    if d:
        print(f"DIFF {name} {d[0]}: {d[1]} -> {d[2]}")
        failed = True
    if a.get("params") != b.get("params"):
        print(f"note: params differ: {a.get('params')} -> {b.get('params')}")
    print(f"host_cores {a.get('host_cores')} -> {b.get('host_cores')}")
    host_a = dict(numbers({k: a.get(k) for k in HOST_KEYS} | {"host": a.get("host")}))
    host_b = dict(numbers({k: b.get(k) for k in HOST_KEYS} | {"host": b.get("host")}))
    for key in sorted(set(host_a) & set(host_b)):
        x, y = host_a[key], host_b[key]
        ratio = y / x if x else float("inf") if y else 1.0
        flag = "  HIGHER" if ratio > TOLERANCE else "  LOWER" if ratio < 1 / TOLERANCE else ""
        print(f"  {key}: {x:.4g} -> {y:.4g} ({ratio:.2f}x){flag}")
    print(f"{'FAIL' if failed else 'ok'}: {name} simulated content "
          f"{'differs' if failed else 'identical'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
