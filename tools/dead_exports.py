#!/usr/bin/env python3
"""List exported values that nothing outside their own module uses.

    python3 tools/dead_exports.py

A `val name` declared in `lib/<lib>/<mod>.mli` counts as used only where
another OCaml source file under lib, bin, bench, perfbench, test or
examples (the module's own .ml and .mli do not count) refers to it
through its module:

- a qualified path, `Mod.name` or `Lib.Mod.name`;
- a module alias, `module M = Lib.Mod` (or `let module`), then `M.name`;
- an open, `open Lib.Mod` or `let open Lib.Mod in`, then bare `name`
  anywhere after it in that file;
- a local open, `Mod.( ... name ... )`, then bare `name` inside the
  parentheses.

Comments and string literals are ignored. A path whose qualifier is a
library name must name the value's own library; module names shared by
two libraries (`Trace`, `Wire`) are otherwise told apart only by that
prefix. Prints each unused value and exits 1 if there is any: such a
value should be deleted, or dropped from the interface when its module
uses it internally.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ["lib", "bin", "bench", "perfbench", "test", "examples"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
PATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(" + PATH + r")\b(?!\s*\()")
OPEN = re.compile(r"\bopen!?\s+(" + PATH + r")")
LOCAL_OPEN = re.compile(r"(?<![A-Za-z0-9_'.])(" + PATH + r")\.\(")
QUALIFIED = re.compile(r"(?<![A-Za-z0-9_'.])(" + PATH + r")\.([a-z_][A-Za-z0-9_']*)")
IDENT = re.compile(r"(?<![A-Za-z0-9_'.])([a-z_][A-Za-z0-9_']*)")


def sources():
    for d in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [n for n in dirnames if n != "_build"]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


CHAR = re.compile(r"'(\\[^']*|[^\\'])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def strip(text):
    """The source with comments and string literals blanked out."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            i += 2
            out.append(" ")
        elif depth:
            if text.startswith("*)", i):
                depth -= 1
                i += 2
            elif text[i] == '"':
                i = skip_string(text, i)
            else:
                i += 1
        elif text[i] == '"':
            i = skip_string(text, i)
            out.append('""')
        elif text[i] == "'" and CHAR.match(text, i):
            i = CHAR.match(text, i).end()
            out.append("' '")
        elif text[i] == "{" and QUOTED.match(text, i):
            tag = QUOTED.match(text, i).group(1)
            end = text.find("|" + tag + "}", i)
            i = n if end < 0 else end + len(tag) + 2
            out.append('""')
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def skip_string(text, i):
    """The index just past the string literal opening at [i]."""
    i += 1
    while i < len(text) and text[i] != '"':
        i += 2 if text[i] == "\\" else 1
    return i + 1


def paren_span(text, start):
    """The text from [start] (just after an opening paren) to its match."""
    depth, i = 1, start
    while i < len(text) and depth:
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        i += 1
    return text[start:i]


def uses(text, libs):
    """(lib or None, module, name) triples the stripped source refers to."""
    # An alias bound twice in one file (two [let module S = ...] in
    # different functions) credits both targets.
    aliases = {}
    for alias, path in ALIAS.findall(text):
        aliases.setdefault(alias, set()).add(path)

    def resolve(path, depth=0):
        parts = path.split(".")
        if parts[0] in aliases and depth < 8:
            for target in aliases[parts[0]]:
                yield from resolve(".".join([target] + parts[1:]), depth + 1)
            return
        lib = parts[-2].lower() if len(parts) > 1 and parts[-2].lower() in libs else None
        if lib is None and len(parts) == 1 and parts[0].lower() in libs:
            lib = parts[0].lower()
        yield lib, parts[-1]

    found = set()
    for path, name in QUALIFIED.findall(text):
        for lib, mod in resolve(path):
            found.add((lib, mod, name))
    for m in OPEN.finditer(text):
        names = IDENT.findall(text[m.end():])
        for lib, mod in resolve(m.group(1)):
            found.update((lib, mod, name) for name in names)
    for m in LOCAL_OPEN.finditer(text):
        names = IDENT.findall(paren_span(text, m.end()))
        for lib, mod in resolve(m.group(1)):
            found.update((lib, mod, name) for name in names)
    return found


def main():
    paths = list(sources())
    libs = {
        os.path.relpath(p, ROOT).split(os.sep)[1]
        for p in paths
        if os.path.relpath(p, ROOT).startswith("lib" + os.sep)
    }
    users = {}
    for path in paths:
        with open(path) as f:
            for key in uses(strip(f.read()), libs):
                users.setdefault(key, set()).add(path)
    dead = []
    for mli in sorted(p for p in paths if p.endswith(".mli")):
        rel = os.path.relpath(mli, ROOT)
        if not rel.startswith("lib" + os.sep):
            continue
        lib = rel.split(os.sep)[1]
        mod = os.path.basename(mli)[:-4].capitalize()
        own = {mli, mli[:-1]}
        with open(mli) as f:
            names = VAL.findall(strip(f.read()))
        for name in names:
            files = users.get((lib, mod, name), set()) | users.get((None, mod, name), set())
            if not files - own:
                dead.append("%s: val %s" % (rel, name))
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
