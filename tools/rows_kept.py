#!/usr/bin/env python3
"""Check that a re-captured envelope keeps every row field of the old one.

    python3 tools/rows_kept.py OLD.json NEW.json

OLD and NEW are envelopes written by `erpc_sim <experiment> --out FILE`
(usually a committed baseline and a run of a change that adds row keys).
NEW may add keys to any object in `rows`; every field OLD has must be in
NEW with the same value, at any depth, and `events` and
`events_by_layer` must be equal. Prints the added keys, then either
`kept` (exit 0) or the first field that differs (exit 1).
"""

import json
import re
import sys


def compare(old, new, path, added):
    """The first (path, old, new) where [new] does not keep [old]."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in new:
            if k not in old:
                added.add(re.sub(r"\[\d+\]", "", f"{path}.{k}").removeprefix("rows."))
        for k, v in old.items():
            if k not in new:
                return f"{path}.{k}", v, "(missing)"
            d = compare(v, new[k], f"{path}.{k}", added)
            if d:
                return d
        return None
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{path} (length)", len(old), len(new)
        for i, (x, y) in enumerate(zip(old, new)):
            d = compare(x, y, f"{path}[{i}]", added)
            if d:
                return d
        return None
    return None if (type(old), old) == (type(new), new) else (path, old, new)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    old, new = (json.load(open(p)) for p in sys.argv[1:])
    added = set()
    diff = None
    for k in ("events", "events_by_layer"):
        if old[k] != new[k]:
            diff = diff or (k, old[k], new[k])
    diff = diff or compare(old["rows"], new["rows"], "rows", added)
    print("added row keys:", ", ".join(sorted(added)) or "none")
    if diff:
        print("differs at %s: %r -> %r" % diff)
        return 1
    print("kept")
    return 0


if __name__ == "__main__":
    sys.exit(main())
