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
    python3 ci/loc.py --against REV

The first form prints one `<lines> <crate src dir>` row per crate (the
facade's `src` and every `crates/*/src`) and a total. The second prints
`<lines at REV> <lines now> <difference> <crate src dir>` rows, reading
REV's files with `git ls-tree` and `git show`; the same rule counts, and
the same check runs on, both sides. A crate present on one side only
counts 0 on the other.
"""

import pathlib
import subprocess
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


def count(files):
    """Non-test lines of `files`, `(name, text)` pairs of `.rs` files,
    and the `(name, line)` of each file whose first `#[cfg(test)]`
    precedes non-test code."""
    total, bad = 0, []
    for name, text in files:
        lines = text.splitlines()
        first = next(
            (i for i, line in enumerate(lines) if line.strip() == CFG_TEST), None
        )
        if first is None:
            total += len(lines)
            continue
        total += first
        if not test_modules_end_the_file(lines, first):
            bad.append((name, first + 1))
    return total, bad


def git(root, *args):
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout


def tree_files(root, src):
    """The working tree's `.rs` files under `src`."""
    return [
        (path.relative_to(root).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted((root / src).rglob("*.rs"))
    ]


def rev_files(root, rev, src):
    """Revision `rev`'s `.rs` files under `src`."""
    names = git(root, "ls-tree", "-r", "--name-only", rev, "--", src).splitlines()
    return [
        (f"{rev}:{name}", git(root, "show", f"{rev}:{name}"))
        for name in sorted(names)
        if name.endswith(".rs")
    ]


def tree_srcs(root):
    crates = (p for p in (root / "crates").iterdir() if (p / "src").is_dir())
    return {"src"} | {f"crates/{p.name}/src" for p in crates}


def rev_srcs(root, rev):
    names = git(root, "ls-tree", "-r", "--name-only", rev, "--", "src", "crates")
    return {
        "/".join(parts[: parts.index("src") + 1])
        for parts in (name.split("/") for name in names.splitlines())
        if "src" in parts and parts.index("src") in (0, 2)
    }


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    if argv and (len(argv) != 2 or argv[0] != "--against"):
        print("usage: python3 ci/loc.py [--against REV]", file=sys.stderr)
        return 2
    rev = argv[1] if argv else None
    try:
        srcs = sorted(tree_srcs(root) | (rev_srcs(root, rev) if rev else set()))
        grand, failures = [0, 0], []
        for src in srcs:
            lines, bad = count(tree_files(root, src))
            failures += bad
            if rev is None:
                print(f"{lines:>6} {src}")
                grand[1] += lines
                continue
            before, bad = count(rev_files(root, rev, src))
            failures += bad
            print(f"{before:>6} {lines:>6} {lines - before:>+6} {src}")
            grand[0] += before
            grand[1] += lines
    except subprocess.CalledProcessError as e:
        print(f"error: {' '.join(e.cmd)}: {e.stderr.strip()}", file=sys.stderr)
        return 1
    if rev is None:
        print(f"{grand[1]:>6} total")
    else:
        print(f"{grand[0]:>6} {grand[1]:>6} {grand[1] - grand[0]:>+6} total")
    for name, line in failures:
        print(
            f"error: {name}:{line}: #[cfg(test)] precedes non-test code; "
            "move the test-only item into the file's test module",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
