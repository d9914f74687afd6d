#!/usr/bin/env python3
"""Compare two Chrome/Perfetto traces written by `erpc_sim trace`.

    python3 tools/trace_diff.py [-k N] A.json B.json

Prints where the two record sequences first diverge, with N records of
context (default 3), the per-(cat, name) count deltas, and whether both
traces hold the same multiset of records (a pure reordering). Records are
compared as written, one per line, so two traces of the same build and
seed compare byte for byte.

Exit status: 0 if the traces are identical, 1 if they hold the same
records in another order, 2 if the records themselves differ.
"""

import argparse
import collections
import json
import sys


def records(path):
    """The trace's records in file order, each as its JSON text."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip().rstrip(",")
            if line.startswith('{"name"'):
                out.append(line)
    if not out:
        with open(path) as f:
            data = json.load(f)
        events = data["traceEvents"] if isinstance(data, dict) else data
        out = [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in events]
    return out


def cat_name(record):
    r = json.loads(record)
    return (r.get("cat", "-"), r.get("name", "?"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", type=int, default=3, help="records of context (default 3)")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    a, b = records(args.a), records(args.b)
    print(f"A {args.a}: {len(a)} records")
    print(f"B {args.b}: {len(b)} records")
    if a == b:
        print("identical: same records in the same order")
        return 0

    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    print(f"first divergence at record {i}:")
    for j in range(max(0, i - args.k), i):
        print(f"    #{j} {a[j]}")
    for side, recs in (("A", a), ("B", b)):
        for j in range(i, min(len(recs), i + args.k + 1)):
            print(f"  {side} #{j} {recs[j]}")

    count_a = collections.Counter(a)
    count_b = collections.Counter(b)
    by_kind_a = collections.Counter()
    by_kind_b = collections.Counter()
    for rec, n in count_a.items():
        by_kind_a[cat_name(rec)] += n
    for rec, n in count_b.items():
        by_kind_b[cat_name(rec)] += n
    deltas = [
        (k, by_kind_a[k], by_kind_b[k])
        for k in sorted(set(by_kind_a) | set(by_kind_b))
        if by_kind_a[k] != by_kind_b[k]
    ]
    print("count deltas (cat/name: A -> B):")
    for (cat, name), x, y in deltas:
        print(f"  {cat}/{name}: {x} -> {y} ({y - x:+d})")
    if not deltas:
        print("  none")

    if count_a == count_b:
        print("same multiset: the same records in another order")
        return 1
    only_a = count_a - count_b
    only_b = count_b - count_a
    print(f"records differ: {sum(only_a.values())} only in A, {sum(only_b.values())} only in B")
    for side, only in (("A", only_a), ("B", only_b)):
        for rec in list(only)[: args.k]:
            print(f"  only in {side}: {rec}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
