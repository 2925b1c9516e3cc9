#!/usr/bin/env python3
"""Unsafe-code audit lint.

Two rules, enforced over every ``crates/**/src`` and ``crates/**/tests``
Rust file:

1. **Allowlist** — only crates with a reviewed reason may contain
   ``unsafe`` at all. Today that is the model checker's sync facade and
   the two allocation counters (snet-runtime's ``alloc_steady`` test —
   the library itself forbids ``unsafe`` — and snet-bench's
   ``bench_unfold``). Everything an engine runs is safe code: snet-core
   (whose records keep their inline pairs in an enum of live states)
   and snet-runtime forbid ``unsafe``, and the two shims, the
   scheduler's run queues and every channel (``std::sync::mpsc``) use
   none.
2. **SAFETY adjacency** — every ``unsafe`` occurrence must be
   *justified*: a comment line containing ``SAFETY:`` within the
   preceding ``MAX_GAP`` lines (comment/attribute lines only — any
   intervening code resets the search). ``unsafe fn`` declarations with
   a ``# Safety`` doc section also pass, as rustdoc is the conventional
   home for caller contracts.

Exit status 0 when clean; 1 with a per-violation report otherwise.

Usage: scripts/check_unsafe.py [--root DIR]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Crate directories (relative to the repo root) permitted to contain
# `unsafe`. Adding a crate here is a review decision: say why.
ALLOWED_UNSAFE_CRATES = {
    "crates/check",  # model-checker Mutex facade (UnsafeCell)
    # tests/alloc_steady.rs only (counting GlobalAlloc); the library
    # itself is `#![forbid(unsafe_code)]`.
    "crates/runtime",
    # src/bin/bench_unfold.rs only: the same counting GlobalAlloc, to
    # report allocations per unfolded replica.
    "crates/bench",
}

# How many comment-only lines above an `unsafe` the SAFETY: note may
# sit. Generous, because the justifications are real paragraphs.
MAX_GAP = 12

UNSAFE_RE = re.compile(r"(?<![\w\"])unsafe(?![\w\"])")
COMMENT_RE = re.compile(r"^\s*(//|#\[|#!\[)")
SAFETY_RE = re.compile(r"//.*SAFETY:|//[/!]\s*#+\s*Safety")


def strip_strings_and_comments(line: str) -> tuple[str, str]:
    """Returns (code_part, comment_part) with string literals blanked.

    A lexer-lite good enough for this lint: it does not handle raw
    strings spanning lines, which do not occur in this workspace.
    """
    out = []
    i = 0
    in_str = None
    comment = ""
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            # Skip char literals / lifetimes crudely: only track ".
            if c == '"':
                in_str = c
            else:
                out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < len(line) and line[i + 1] == "/":
            comment = line[i:]
            break
        out.append(c)
        i += 1
    return "".join(out), comment


def unsafe_in_code(line: str) -> bool:
    code, _ = strip_strings_and_comments(line)
    return bool(UNSAFE_RE.search(code))


def has_adjacent_safety(lines: list[str], idx: int) -> bool:
    """Is there a SAFETY: comment within MAX_GAP comment-lines above?"""
    gap = 0
    j = idx - 1
    while j >= 0 and gap < MAX_GAP:
        line = lines[j]
        if SAFETY_RE.search(line):
            return True
        if line.strip() == "" or COMMENT_RE.match(line):
            # Blank lines and attributes may sit between the note and
            # the block; they do not reset the search.
            j -= 1
            gap += 1
            continue
        if unsafe_in_code(line):
            # Part of the same unsafe region (e.g. the fn whose body
            # this inner block is in) — keep walking up to its note.
            j -= 1
            gap += 1
            continue
        return False
    return False


def crate_of(path: Path, root: Path) -> str | None:
    """The crate directory (as a root-relative string) owning `path`."""
    cur = path.parent
    while cur != root and cur != cur.parent:
        if (cur / "Cargo.toml").exists():
            return cur.relative_to(root).as_posix()
        cur = cur.parent
    return None


def check_file(path: Path, root: Path, errors: list[str]) -> None:
    rel = path.relative_to(root).as_posix()
    lines = path.read_text(encoding="utf-8").splitlines()
    hits = [i for i, line in enumerate(lines) if unsafe_in_code(line)]
    if not hits:
        return

    crate = crate_of(path, root)
    if crate not in ALLOWED_UNSAFE_CRATES:
        errors.append(
            f"{rel}:{hits[0] + 1}: crate `{crate}` is not on the "
            f"unsafe allowlist (scripts/check_unsafe.py) but contains "
            f"`unsafe`"
        )
        return

    # Within an allowed crate, every unsafe needs its SAFETY: note.
    # Consecutive unsafe lines (an `unsafe fn` header and the blocks in
    # its body, say) each get checked; the walk-up skips sibling unsafe
    # lines so one note never silently covers an unrelated block far
    # below.
    for i in hits:
        if SAFETY_RE.search(lines[i]):
            continue
        if has_adjacent_safety(lines, i):
            continue
        # `unsafe fn` with a rustdoc `# Safety` section above also ok.
        errors.append(
            f"{rel}:{i + 1}: `unsafe` without an adjacent `SAFETY:` "
            f"comment (within {MAX_GAP} comment-lines above)"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None, help="repo root (default: script's parent's parent)")
    args = ap.parse_args()
    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parent.parent

    files = sorted(
        p
        for sub in ("src", "tests", "benches")
        for p in root.glob(f"crates/**/{sub}/**/*.rs")
    )
    if not files:
        print("check_unsafe: no Rust files found — wrong --root?", file=sys.stderr)
        return 1

    errors: list[str] = []
    scanned = 0
    for f in files:
        scanned += 1
        check_file(f, root, errors)

    if errors:
        print(f"check_unsafe: {len(errors)} violation(s) in {scanned} files:\n")
        for e in errors:
            print(f"  {e}")
        print(
            "\nEvery `unsafe` needs a `// SAFETY:` comment directly above "
            "it, and only allowlisted crates may use `unsafe` at all."
        )
        return 1

    print(f"check_unsafe: OK ({scanned} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
