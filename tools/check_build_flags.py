#!/usr/bin/env python3
"""Check the compiler flags dune uses for the simulator's libraries.

    python3 tools/check_build_flags.py

For one module of each library under lib/, asks `dune rules` for the
ocamlopt command that builds its .cmx and checks it:

- no -opaque (dune's dev profile adds it, which makes every call across
  modules indirect and stops inlining across them);
- the dev profile's warnings-as-errors spec and -strict-sequence are
  still there (the release profile drops them unless dune-workspace
  restores them);
- -inline 200 is there (lib/dune sets it).

Exits 1 and lists every problem if any check fails. Run it after
`dune build`.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARNINGS = "@1..3@5..28@30..39@43@46..47@49..57@61..62-40"
NAME = re.compile(r"\(name\s+([a-z_][a-z0-9_]*)\)")


def cmx_target(lib_dir):
    """The .cmx of the library's first module, in dune's build tree."""
    with open(os.path.join(lib_dir, "dune")) as f:
        lib = NAME.search(f.read()).group(1)
    mod = sorted(f[:-3] for f in os.listdir(lib_dir) if f.endswith(".ml"))[0]
    obj = lib if mod == lib else "%s__%s" % (lib, mod.capitalize())
    rel = os.path.relpath(lib_dir, ROOT)
    return os.path.join("_build", "default", rel, ".%s.objs" % lib, "native", obj + ".cmx")


def compile_args(target):
    r = subprocess.run(
        ["dune", "rules", "--root", ROOT, target],
        cwd=ROOT, capture_output=True, text=True,
    )
    if r.returncode != 0:
        return None, r.stderr.strip()[-300:]
    # The action is an s-expression; its atoms are enough here.
    return r.stdout.split(), None


def check(args):
    problems = []
    if "-opaque" in args:
        problems.append("-opaque")
    if not any(a == "-w" and b == WARNINGS for a, b in zip(args, args[1:])):
        problems.append("missing -w " + WARNINGS)
    if "-strict-sequence" not in args:
        problems.append("missing -strict-sequence")
    if not any(a == "-inline" and b == "200" for a, b in zip(args, args[1:])):
        problems.append("missing -inline 200")
    return problems


def main():
    lib = os.path.join(ROOT, "lib")
    failed = False
    for d in sorted(os.listdir(lib)):
        lib_dir = os.path.join(lib, d)
        if not os.path.isfile(os.path.join(lib_dir, "dune")):
            continue
        target = cmx_target(lib_dir)
        args, err = compile_args(target)
        problems = [err] if args is None else check(args)
        if problems:
            failed = True
            print("%s: %s" % (target, "; ".join(problems)))
    if failed:
        sys.exit(1)
    print("build flags ok for every library under lib/")


if __name__ == "__main__":
    main()
