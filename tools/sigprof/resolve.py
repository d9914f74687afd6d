#!/usr/bin/env python3
"""Resolve sampler.c profiles into a per-layer table.

    python3 tools/sigprof/resolve.py PROFILE [PROFILE2] [--libs]

Maps every sampled address through the executable's first
/proc/self/maps entry and its `nm -n` symbols (weak ones included:
caml_modify is weak), then groups samples into rows:

- OCaml code by module, from `caml<Lib>__<Module>` symbols
  (`Sim.Timing_wheel`, `Netsim.Port`, ...; perfbench's own modules read
  `perfbench.<Module>`);
- caml_modify and caml_darken each on their own row, the rest of the
  collector under `GC`, and closure application (caml_applyN, caml_curryN)
  under `caml_apply*`;
- other runtime C code, and code outside the executable (libc, libm).

Samples in perfbench's reference loop (Common.Speed.sample) and in its
percentile sorts are dropped: they are fixed costs of the harness, not
of the simulator. Each row gives CPU milliseconds (samples x interval)
and its share of the kept samples. With two profiles of the same fixed
work (perfbench --seconds 0 --min-reps N), the rows sit side by side
with the change in milliseconds. --libs merges each library's modules
into one row (`Sim`, `Erpc`, `perfbench`, ...); with cross-module
inlining, code often runs in its caller's module, so library rows are
the steadier split.
"""

import bisect
import re
import subprocess
import sys
from collections import Counter

GC = re.compile(
    r"minor|major|oldify|mark|sweep|_gc|gc_|alloc_shr|alloc_small|pool_|"
    r"large_alloc|ephe|final|orphan|compact|collect"
)
APPLY = re.compile(r"^caml_(apply|curry|tuplify)\d")
MODULE = re.compile(r"^caml([A-Z][A-Za-z0-9_]*?)\.")
DROPPED = re.compile(
    r"^camlDune__exe__Common\.sample_\d+$"  # the reference loop
    r"|^camlStdlib__Array\.(sort|stable_sort|merge|isortto|sortto|maxson|trickle"
    r"|trickledown|bubble|bubbledown|trickleup)_\d+$"
    r"|^caml_compare$"  # Array.sort compare
)


def load(path):
    interval_us, exe, maps, pcs = 500, None, [], []
    with open(path) as f:
        for line in f:
            tag, _, rest = line.rstrip("\n").partition(" ")
            if tag == "pc":
                pcs.append(int(rest, 16))
            elif tag == "map":
                maps.append(rest)
            elif tag == "exe":
                exe = rest
            elif tag == "interval_us":
                interval_us = int(rest)
    return interval_us, exe, maps, pcs


def exe_mapping(exe, maps):
    """(load bias, low, high) of the executable's mappings."""
    lo, hi, bias = None, None, None
    for m in maps:
        fields = m.split()
        if len(fields) < 6 or fields[5] != exe:
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        offset = int(fields[2], 16)
        if bias is None:
            bias = start - offset  # first entry
        lo = start if lo is None else min(lo, start)
        hi = end if hi is None else max(hi, end)
    with open(exe, "rb") as f:
        pie = f.read(18)[16] == 3  # ET_DYN
    return (bias if pie else 0), lo, hi


def symbols(exe):
    out = subprocess.run(["nm", "-n", exe], capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWw":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names


def row_of(sym):
    if sym == "caml_modify" or sym == "caml_darken":
        return sym
    if APPLY.match(sym):
        return "caml_apply*"
    m = MODULE.match(sym)
    if m:
        mod = m.group(1)
        if mod.startswith("Dune__exe__"):
            return "perfbench." + mod[len("Dune__exe__"):]
        return mod.replace("__", ".")
    if GC.search(sym):
        return "GC"
    return "runtime (other C)"


def lib_of(row):
    return row.split(".")[0] if row[0].isupper() or row.startswith("perfbench.") else row


def profile(path, libs):
    interval_us, exe, maps, pcs = load(path)
    bias, lo, hi = exe_mapping(exe, maps)
    addrs, names = symbols(exe)
    rows, dropped = Counter(), 0
    for pc in pcs:
        if lo is None or not lo <= pc < hi:
            rows["outside the executable"] += 1
            continue
        i = bisect.bisect_right(addrs, pc - bias) - 1
        sym = names[i] if i >= 0 else "?"
        if DROPPED.match(sym):
            dropped += 1
            continue
        row = row_of(sym)
        rows[lib_of(row) if libs else row] += 1
    return interval_us / 1000.0, rows, dropped


def main():
    args = sys.argv[1:]
    libs = "--libs" in args
    if libs:
        args.remove("--libs")
    if not 1 <= len(args) <= 2:
        sys.exit(__doc__)
    profs = [profile(p, libs) for p in args]
    names = sorted(
        set().union(*(r for _, r, _ in profs)),
        key=lambda n: -max(ms * r[n] for ms, r, _ in profs),
    )
    totals = [sum(r.values()) for _, r, _ in profs]
    head = "".join("%12s %6s" % ("ms", "%") for _ in profs)
    print("%-28s%s%s" % ("row", head, "%12s" % "change ms" if len(profs) == 2 else ""))
    for n in names + ["total"]:
        cells, ms_vals = "", []
        for (ms, r, _), tot in zip(profs, totals):
            k = tot if n == "total" else r[n]
            ms_vals.append(ms * k)
            cells += "%12.0f %5.1f%%" % (ms * k, 100.0 * k / max(1, tot))
        delta = "%+12.0f" % (ms_vals[1] - ms_vals[0]) if len(profs) == 2 else ""
        print("%-28s%s%s" % (n, cells, delta))
    for path, (ms, _, dropped) in zip(args, profs):
        print("%s: %.0f ms dropped (reference loop, percentile sorts)" % (path, ms * dropped))


if __name__ == "__main__":
    main()
