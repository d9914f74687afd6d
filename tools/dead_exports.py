#!/usr/bin/env python3
"""List exported values that nothing outside their own module names.

    python3 tools/dead_exports.py

Prints every `val` declared in a `lib/**/*.mli` whose name appears, as a
whole word, in no other OCaml source file under lib, bin, bench,
perfbench, test or examples (the module's own .ml and .mli do not
count). Exits 1 if it prints anything. Such a value should be deleted,
or dropped from the interface when the module uses it internally.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ["lib", "bin", "bench", "perfbench", "test", "examples"]
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)


def sources():
    for d in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [n for n in dirnames if n != "_build"]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main():
    words = {}
    for path in sources():
        with open(path) as f:
            words[path] = set(IDENT.findall(f.read()))
    dead = []
    for mli in sorted(p for p in words if p.endswith(".mli")):
        if not os.path.relpath(mli, ROOT).startswith("lib" + os.sep):
            continue
        own = {mli, mli[:-1]}
        with open(mli) as f:
            names = VAL.findall(f.read())
        for name in names:
            if not any(name in ws for p, ws in words.items() if p not in own):
                dead.append("%s: val %s" % (os.path.relpath(mli, ROOT), name))
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
