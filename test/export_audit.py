#!/usr/bin/env python3
"""Flag every `val` in lib/*/*.mli that no other source file names.

Run from the repository root:  python3 test/export_audit.py

Every .ml/.mli under lib, bin, bench, perfbench, examples and test is
split into identifier tokens once. A `val` declared in lib/<dir>/<m>.mli
is dead when its name appears in no file other than <m>.ml and <m>.mli.
Dead exports are printed one per line and the exit status is 1. A name
that happens to appear elsewhere can only hide a dead export, so the
check never fails on a live one.
"""

import os
import re
import sys

TREES = ("lib", "bin", "bench", "perfbench", "examples", "test")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)


def sources():
    for tree in TREES:
        for root, dirs, files in os.walk(tree):
            dirs[:] = [d for d in dirs if d != "_build"]
            for name in files:
                if name.endswith((".ml", ".mli")):
                    yield os.path.join(root, name)


def main():
    text, users = {}, {}
    for path in sources():
        with open(path, encoding="utf-8", errors="replace") as f:
            text[path] = f.read()
        for tok in set(IDENT.findall(text[path])):
            users.setdefault(tok, set()).add(path)
    dead = []
    for path in sorted(text):
        parts = path.split(os.sep)
        if len(parts) != 3 or parts[0] != "lib" or not path.endswith(".mli"):
            continue
        own = {path, path[:-1]}
        dead += [f"{path}: {name}" for name in VAL.findall(text[path]) if not users[name] - own]
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
