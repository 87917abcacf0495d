#!/usr/bin/env python3
"""Checks the [[path]] and [[path:line]] anchors of docs/ARCHITECTURE.md.

Every anchor must name a file of the repository. A line anchor must be
followed by a backticked identifier, and that line of the file must hold
the identifier: its last `::` component, with any template arguments or
call parentheses dropped (`Dataset::packed` checks `packed`,
`LaneBlock<W, Arch>` checks `LaneBlock`).

Usage: python3 docs/check_anchors.py [doc ...]   (exit 1 on any stale anchor)
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ANCHOR = re.compile(r"\[\[([^\]:]+)(?::(\d+))?\]\]")
FOLLOWING_IDENT = re.compile(r"\s*`([^`]+)`")


def identifier(text):
    name = re.split(r"[<(]", text, maxsplit=1)[0].strip()
    return name.split("::")[-1]


def check(doc):
    text = doc.read_text(encoding="utf-8")
    problems = []
    for match in ANCHOR.finditer(text):
        path, line = match.group(1), match.group(2)
        where = f"{doc.name}:{text.count(chr(10), 0, match.start()) + 1}"
        target = ROOT / path
        if not target.is_file():
            problems.append(f"{where}: [[{path}]] names no file")
            continue
        if line is None:
            continue
        ident = FOLLOWING_IDENT.match(text, match.end())
        if ident is None:
            problems.append(f"{where}: [[{path}:{line}]] is not followed by "
                            "a `backticked` identifier")
            continue
        name = identifier(ident.group(1))
        lines = target.read_text(encoding="utf-8").splitlines()
        number = int(line)
        source = lines[number - 1] if 0 < number <= len(lines) else ""
        if not re.search(rf"\b{re.escape(name)}\b", source):
            hits = [str(i + 1) for i, l in enumerate(lines)
                    if re.search(rf"\b{re.escape(name)}\b", l)][:5]
            problems.append(f"{where}: [[{path}:{line}]] `{ident.group(1)}`: "
                            f"line {line} does not hold `{name}` "
                            f"(it appears on lines {', '.join(hits) or 'none'})")
    return problems


def main(argv):
    docs = [pathlib.Path(a) for a in argv] or [ROOT / "docs" / "ARCHITECTURE.md"]
    problems = [p for doc in docs for p in check(doc)]
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} stale anchor(s)")
        return 1
    print("all anchors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
