#!/usr/bin/env python3
"""Counts each crate's non-test lines, the figure simplicity changes report.

The rule: a source file's non-test lines are its lines before its first
`#[cfg(test)]`. That rule only holds if nothing but test code follows
the first `#[cfg(test)]`, so the script also checks it: in every `src`
file the first `#[cfg(test)]` must sit at the top level and open a
module (`mod tests { ... }`), and only blank lines, comments and further
`#[cfg(test)]` modules may follow that module. A file that breaks this
(a test-only helper above production code, say) is named and the script
exits 1; move the helper into the file's test module.

Usage (from the repository root, stdlib only):

    python3 ci/loc.py

prints one `<lines> <crate src dir>` row per crate (the facade's `src`
and every `crates/*/src`) and a total.
"""

import pathlib
import sys

CFG_TEST = "#[cfg(test)]"


def is_trailer(line):
    """Blank, a comment or an attribute: lines that carry no item."""
    text = line.strip()
    return not text or text.startswith("//") or text.startswith("#[")


def test_modules_end_the_file(lines, first):
    """True when line `first` (a `#[cfg(test)]`) and everything after it
    are top-level `#[cfg(test)]` modules, blanks and comments."""
    i = first
    while i < len(lines):
        if is_trailer(lines[i]) and lines[i].strip() != CFG_TEST:
            i += 1
            continue
        if lines[i].rstrip() != CFG_TEST:
            return False
        i += 1
        while i < len(lines) and is_trailer(lines[i]) and lines[i].strip() != CFG_TEST:
            i += 1
        if i == len(lines) or not lines[i].startswith("mod "):
            return False
        if lines[i].rstrip().endswith(";"):
            i += 1
            continue
        # rustfmt closes a top-level block with a `}` in column 0, and
        # nothing inside the block starts in column 0.
        i += 1
        while i < len(lines) and lines[i].rstrip() != "}":
            i += 1
        if i == len(lines):
            return False
        i += 1
    return True


def count(src):
    """Non-test lines of the `.rs` files under `src`, and the files
    whose first `#[cfg(test)]` precedes non-test code."""
    total, bad = 0, []
    for path in sorted(src.rglob("*.rs")):
        lines = path.read_text(encoding="utf-8").splitlines()
        first = next(
            (i for i, line in enumerate(lines) if line.strip() == CFG_TEST), None
        )
        if first is None:
            total += len(lines)
            continue
        total += first
        if not test_modules_end_the_file(lines, first):
            bad.append((path, first + 1))
    return total, bad


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    srcs = [root / "src"] + sorted(p / "src" for p in (root / "crates").iterdir() if (p / "src").is_dir())
    grand, failures = 0, []
    for src in srcs:
        lines, bad = count(src)
        grand += lines
        failures += bad
        print(f"{lines:>6} {src.relative_to(root)}")
    print(f"{grand:>6} total")
    for path, line in failures:
        print(
            f"error: {path.relative_to(root)}:{line}: #[cfg(test)] precedes non-test code; "
            "move the test-only item into the file's test module",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
