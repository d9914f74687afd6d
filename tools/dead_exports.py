#!/usr/bin/env python3
"""List exported values that nothing outside their own module uses, and
optional parameters that no call site passes.

    python3 tools/dead_exports.py

A `val name` declared in `lib/<lib>/<mod>.mli` counts as used only where
another OCaml source file under lib, bin, bench, perfbench, test or
examples (the module's own .ml and .mli do not count) refers to it
through its module:

- a qualified path, `Mod.name` or `Lib.Mod.name`;
- a module alias, `module M = Lib.Mod` (or `let module`), then `M.name`;
- an open, `open Lib.Mod`, then bare `name` anywhere after it in that
  file, or `let open Lib.Mod in`, then bare `name` after it up to the end
  of its toplevel item (the next line that starts with `let`, `and`,
  `type`, `module`, `open`, `include`, `exception`, `external` or
  `class`);
- a local open, `Mod.( ... name ... )`, then bare `name` inside the
  parentheses.

A record field label reached through its module (`{ Mod.name = e }`,
`{ Mod.name; _ }`, `{ r with Mod.name = e }`) is not a use of a val of
that name. Comments and string literals are ignored. A path whose
qualifier is a library name must name the value's own library; module
names shared by two libraries (`Trace`, `Wire`) are otherwise told apart
only by that prefix. Prints each unused value: such a value should be
deleted, or dropped from the interface when its module uses it
internally.

It also prints every optional parameter (`?name:` in the val's type) of
a `lib/**/*.mli` val that no call site passes. A call site is a use as
above or a bare use inside the module's own .ml; its arguments are the
labels that follow it before the expression ends. A label that only
forwards the enclosing toplevel function's own optional parameter of the
same name (`?name`, `~name`, `?name:name`, `~name:name`) counts as passed
only if that parameter is itself passed. Such a parameter should become
a constant. An optional parameter that only call sites inside the val's
own module pass (directly, or by forwarding a parameter that is itself
passed only from inside) is printed too: it should leave the .mli, the
module keeping it on an internal function. Exits 1 if anything is
printed.

    python3 tools/dead_exports.py --no-tests

lists instead the vals and optional parameters that only test/ uses:
those the same rules report with test/ left out of the use scan, less
those they report with it. It ends with their count and always exits 0.
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
ITEM = re.compile(r"^(?:let|and|type|module|open|include|exception|external|class)\b", re.M)
LOCAL_OPEN = re.compile(r"(?<![A-Za-z0-9_'.])(" + PATH + r")\.\(")
QUALIFIED = re.compile(r"(?<![A-Za-z0-9_'.])(" + PATH + r")\.([a-z_][A-Za-z0-9_']*)")
IDENT = re.compile(r"(?<![A-Za-z0-9_'.])([a-z_][A-Za-z0-9_']*)")


def sources(dirs):
    for d in dirs:
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


def resolver(text, libs):
    """Maps a module path written in [text] to its (lib or None, module)
    targets, through the file's module aliases."""
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

    return resolve


def opens(text):
    """(start, end, path) of every open in the stripped source: the span
    of text whose bare names it brings into scope."""
    out = []
    for m in OPEN.finditer(text):
        end = len(text)
        if re.search(r"\blet\s+$", text[max(0, m.start() - 8):m.start()]):
            item = ITEM.search(text, m.end())
            if item:
                end = item.start()
        out.append((m.end(), end, m.group(1)))
    return out


FIELD_BEFORE = re.compile(r"(?:[{;]|\bwith)\s*$")
FIELD_AFTER = re.compile(r"\s*(?:[;}:]|=(?!=))")


def is_field(text, m):
    """Whether the qualified name matched at [m] is a record field label:
    it follows `{`, `;` or `with` directly inside braces, and `=`, `;`,
    `:` or `}` follows it."""
    if not (FIELD_BEFORE.search(text, max(0, m.start() - 40), m.start())
            and FIELD_AFTER.match(text, m.end())):
        return False
    depth, i = 0, m.start() - 1
    while i >= 0:
        c = text[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if depth == 0:
                return c == "{"
            depth -= 1
        i -= 1
    return False


def uses(text, libs):
    """(lib or None, module, name) triples the stripped source refers to."""
    resolve = resolver(text, libs)
    found = set()
    for m in QUALIFIED.finditer(text):
        if is_field(text, m):
            continue
        for lib, mod in resolve(m.group(1)):
            found.add((lib, mod, m.group(2)))
    for start, end, path in opens(text):
        names = IDENT.findall(text[start:end])
        for lib, mod in resolve(path):
            found.update((lib, mod, name) for name in names)
    for m in LOCAL_OPEN.finditer(text):
        names = IDENT.findall(paren_span(text, m.end()))
        for lib, mod in resolve(m.group(1)):
            found.update((lib, mod, name) for name in names)
    return found


LABEL_ARG = re.compile(r"[~?]([a-z_][A-Za-z0-9_']*)(?::\s*([a-z_][A-Za-z0-9_']*)\b(?!\s*[.(]))?")
TOKEN = re.compile(
    r"\s+|[~?][a-z_][A-Za-z0-9_']*:?|[A-Za-z_][A-Za-z0-9_'.]*|[0-9][0-9A-Za-z_.]*"
    r"|[()\[\]{}]|;;?|,|->|[=<>@^|&+*/$%!:\-#]+|\S"
)
STOP_WORDS = {
    "in", "then", "else", "do", "done", "with", "and", "let", "match", "when",
    "end", "begin", "if", "fun", "function", "try", "val", "type", "module", "open",
}
TOPLEVEL = re.compile(r"^(?:let|and)(?:\s+rec)?\s+([a-z_][A-Za-z0-9_']*)", re.M)
OPT_DEF = re.compile(r"\?\(?\s*([a-z_][A-Za-z0-9_']*)")
LOCAL_BIND = re.compile(r"\blet\s+([a-z_][A-Za-z0-9_']*)\s*=\s*$")
DEFINED = re.compile(r"\b(?:let|and|rec|val)\s+$")
OPT_VAL = re.compile(r"\?([a-z_][A-Za-z0-9_']*)\s*:")
NEVER = " is never passed"
OWN = " is only passed by its own module"


def depth_at(text, pos):
    """Bracket depth of [pos] in [text]."""
    return sum({"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}.get(c, 0) for c in text[:pos])


def call_labels(text, pos):
    """Labels [(name, forwarded var or None)] applied to the call at [pos]."""
    depth, out = 0, []
    for m in TOKEN.finditer(text, pos):
        tok = m.group(0)
        if tok.isspace():
            continue
        if tok in "([{":
            depth += 1
        elif tok in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if tok[0] in "~?" and len(tok) > 1:
                lab = LABEL_ARG.match(text, m.start())
                name, arg = lab.group(1), lab.group(2)
                if not tok.endswith(":"):
                    arg = name
                out.append((name, arg if arg == name else None))
            elif tok in STOP_WORDS or tok in (";", ";;", ",", "->", "|"):
                break
            elif re.fullmatch(r"[=<>@^|&+*/$%!:\-#]+", tok):
                break
    return out


def toplevels(text):
    """[(start, name, optional params of its header)] of a stripped .ml."""
    out = []
    for m in TOPLEVEL.finditer(text):
        depth, i = 0, m.end()
        while i < len(text):
            c = text[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == "=" and depth == 0 and text[i + 1] not in "=<>":
                break
            i += 1
        out.append((m.start(), m.group(1), set(OPT_DEF.findall(text[m.end():i]))))
    return out


def sites(text, libs, own, own_names):
    """(lib or None, module, name, pos) of every call site in the text: uses
    through a module, and bare uses of [own]'s toplevel [own_names]."""
    resolve = resolver(text, libs)
    for m in QUALIFIED.finditer(text):
        if is_field(text, m):
            continue
        for lib, mod in resolve(m.group(1)):
            yield lib, mod, m.group(2), m.end()
            # [let f = Mod.name ~a in ... f ~b]: later uses of [f] are sites too.
            bound = LOCAL_BIND.search(text, max(0, m.start() - 80), m.start())
            if bound:
                for use in re.finditer(r"(?<![A-Za-z0-9_'.~?])%s\b" % bound.group(1), text[m.end():]):
                    yield lib, mod, m.group(2), m.end() + use.end()
    opened = [(start, end, list(resolve(path))) for start, end, path in opens(text)]
    for m in IDENT.finditer(text):
        before = text[max(0, m.start() - 8):m.start()]
        if before.endswith(("~", "?")) or DEFINED.search(before):
            continue
        name = m.group(1)
        if name in own_names:
            yield own + (name, m.end())
        for start, end, targets in opened:
            if start < m.start() < end:
                for lib, mod in targets:
                    yield lib, mod, name, m.end()


def unpassed_optionals(paths, libs):
    """Optional parameters of lib .mli vals that no call site passes."""
    vals = {}  # (lib, Mod, name) -> optional labels of the val
    for mli in paths:
        rel = os.path.relpath(mli, ROOT)
        if not (rel.startswith("lib" + os.sep) and mli.endswith(".mli")):
            continue
        key = (rel.split(os.sep)[1], os.path.basename(mli)[:-4].capitalize())
        with open(mli) as f:
            text = strip(f.read())
        for m in VAL.finditer(text):
            end = VAL.search(text, m.end())
            sig = text[m.end():end.start() if end else len(text)]
            sig = re.split(r"\n\s*(?:type|module|exception|external)\b", sig)[0]
            vals[key + (m.group(1),)] = {
                o.group(1) for o in OPT_VAL.finditer(sig) if depth_at(sig, o.start()) == 0
            }
    # [passed]: some call site passes the label; [outside]: one outside
    # the val's own module does, directly or through a forward.
    passed, outside, forwards = set(), set(), []
    for path in paths:
        if not path.endswith(".ml"):
            continue
        rel = os.path.relpath(path, ROOT)
        mod = os.path.basename(path)[:-3].capitalize()
        own = (rel.split(os.sep)[1], mod) if rel.startswith("lib" + os.sep) else (path, mod)
        with open(path) as f:
            text = strip(f.read())
        tops = toplevels(text)
        own_names = {n for _, n, _ in tops}
        for lib, mod, name, pos in sites(text, libs, own, own_names):
            encl = None
            for start, top, opts in tops:
                if start < pos:
                    encl = (top, opts)
            inside = mod == own[1] and lib in (None, own[0])
            for label, var in call_labels(text, pos):
                callee = (lib, mod, name, label)
                if var is not None and encl and label in encl[1]:
                    forwards.append((callee, own + (encl[0], label), inside))
                else:
                    passed.add(callee)
                    if not inside:
                        outside.add(callee)

    def is_in(found, lib, mod, name, label):
        return (lib, mod, name, label) in found or (None, mod, name, label) in found

    changed = True
    while changed:
        changed = False
        for callee, outer, inside in forwards:
            for found, reached in (
                (passed, is_in(passed, *outer)),
                (outside, is_in(outside, *outer) or (not inside and is_in(passed, *outer))),
            ):
                if reached and not is_in(found, *callee):
                    found.add(callee)
                    changed = True
    return sorted(
        "%s/%s.mli: val %s ?%s%s"
        % (lib, mod.lower(), name, label, NEVER if not is_in(passed, lib, mod, name, label) else OWN)
        for (lib, mod, name), labels in vals.items()
        for label in labels
        if not is_in(outside, lib, mod, name, label)
    )


def unused(dirs):
    """Unused vals and unpassed optional parameters, given the uses in [dirs]."""
    paths = list(sources(dirs))
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
    dead += ["lib/" + line for line in unpassed_optionals(paths, libs)]
    return dead


def main():
    if sys.argv[1:] == ["--no-tests"]:
        everywhere = set(unused(DIRS))
        test_only = [line for line in unused([d for d in DIRS if d != "test"]) if line not in everywhere]
        for line in test_only:
            print(line)
        params = sum(line.endswith((NEVER, OWN)) for line in test_only)
        print("%d vals and %d optional parameters only test/ uses" % (len(test_only) - params, params))
        return 0
    if sys.argv[1:]:
        sys.exit("usage: dead_exports.py [--no-tests]")
    dead = unused(DIRS)
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
