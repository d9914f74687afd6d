#!/usr/bin/env python3
"""Replay committed result envelopes, or compare two envelopes.

    python3 tools/bench_diff.py BASELINE.json... [--out-dir DIR] [--update]
    python3 tools/bench_diff.py A.json B.json

An envelope (`erpc_sim <experiment> --out FILE`) records the experiment,
params and seed that produced it. The first form builds erpc_sim once,
then re-runs each BASELINE as `<experiment> --<key>=<value>... --seed S
--rerun --out DIR/BENCH_<name>.json` (`_` in a key becomes `-`, a null
param is left out, paper's `section` is positional; DIR defaults to a
temporary one). A replay fails if the run exits nonzero (any violation
does: every run checks itself) or if the fresh envelope differs from the
baseline; a failed comparison prints how to reproduce and trace it.
--update writes each fresh envelope over its baseline instead of failing
on a difference. The second form (two files, neither option) compares
baseline A with B.

Simulated content must match exactly: any difference in the COMPARED
keys or `rows` fails (exit 1). Host measurements (`cpu_s`, `wall_s`,
`peak_heap_mb`, every number under `host`) are printed as B/A ratios and
flagged outside 1/TOLERANCE..TOLERANCE, but never fail: they depend on
the machine (compare `host_cores`).
"""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "bin", "erpc_sim.exe")
TOLERANCE = 1.5
HOST_KEYS = ("cpu_s", "wall_s", "peak_heap_mb")
COMPARED = ("schema_version", "experiment", "benchmark", "unit", "seed", "params", "digest",
            "events_by_layer")
POSITIONAL = {"paper": "section"}
# Entries whose run can write its event trace (--trace-out FILE).
TRACEABLE = ("incast", "rate", "bandwidth", "anatomy")


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


def compare(a, b):
    """Print how B differs from A; True iff their simulated content does."""
    name = f"{b.get('experiment')} (seed {b.get('seed')})"
    failed = False
    for key in COMPARED:
        if a.get(key) != b.get(key):
            print(f"DIFF {name} {key}: {a.get(key)} -> {b.get(key)}")
            failed = True
    d = first_difference(a.get("rows"), b.get("rows"))
    if d:
        print(f"DIFF {name} {d[0]}: {d[1]} -> {d[2]}")
        failed = True
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
    return failed


def replay_args(base):
    """The erpc_sim arguments that reproduce the envelope BASE."""
    args = [base["experiment"]]
    for k, v in base["params"].items():
        if v is not None:
            v = str(v).lower() if isinstance(v, bool) else str(v)
            args.append(v if k == POSITIONAL.get(args[0]) else f"--{k.replace('_', '-')}={v}")
    return args + ["--seed", str(base["seed"]), "--rerun"]


def explain(base, path, args, out):
    """How to look into a replay of BASE (at PATH) that moved."""
    cmd = shlex.join([EXE] + args + ["--out", os.path.basename(out)])
    print(f"  replay: {cmd}")
    commit = subprocess.run(["git", "log", "-1", "--format=%h", "--", path], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "?"
    print(f"  baseline last written by commit {commit}")
    p = base["params"]
    if base["experiment"] in TRACEABLE and p.get("transport") != "all" and not p.get("fasst"):
        print(f"  trace:  {cmd} --trace-out new.trace.json")
        print(f"  run the trace command in a checkout of {commit} with --trace-out old.trace.json,"
              " then: python3 tools/trace_diff.py old.trace.json new.trace.json")


def replay(path, out_dir, update):
    """Replay the baseline at PATH; True iff it failed."""
    base = json.load(open(path))
    name = os.path.splitext(os.path.basename(path))[0]
    out = os.path.join(out_dir, f"BENCH_{name}.json")
    args = replay_args(base)
    print(f"== {name}: erpc_sim {shlex.join(args)}", flush=True)
    r = subprocess.run([os.path.join(ROOT, EXE)] + args + ["--out", out], cwd=ROOT,
                       capture_output=True, text=True)
    if r.returncode != 0:
        print(r.stdout[-2000:] + r.stderr[-2000:], end="")
        print(f"FAIL: {name} exited {r.returncode}")
        explain(base, path, args, out)
        return True
    if compare(base, json.load(open(out))) and not update:
        explain(base, path, args, out)
        return True
    if update:
        shutil.copyfile(out, path)
        print(f"updated {path}")
    return False


def build():
    r = subprocess.run(["dune", "build", "--root", ROOT, "./bin/erpc_sim.exe"], cwd=ROOT,
                       env=dict(os.environ, DUNE_CACHE="disabled"), stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("bench_diff: build failed")


def main():
    ap = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1])
    ap.add_argument("envelopes", nargs="+")
    ap.add_argument("--out-dir", help="where replays write their envelopes")
    ap.add_argument("--update", action="store_true", help="write each replay over its baseline")
    args = ap.parse_args()
    if len(args.envelopes) == 2 and not args.out_dir and not args.update:
        a, b = (json.load(open(p)) for p in args.envelopes)
        sys.exit(1 if compare(a, b) else 0)
    build()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.abspath(args.out_dir or tmp)
        failed = [p for p in args.envelopes if replay(os.path.abspath(p), out_dir, args.update)]
    if failed:
        print("FAIL:", " ".join(failed))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
