#!/usr/bin/env python3
"""Count non-test source lines: each `.rs` file up to its first
`#[cfg(test)]` line (the whole file if it has none).

    scripts/src_lines.py [PATH...]                  # per file + total
    scripts/src_lines.py --against <git-rev> PATH   # delta per file vs <rev>

PATH is a file or a directory (searched recursively for `*.rs`);
default `crates`. This is the number simplicity PRs quote as "non-test
lines": blank lines and comments count (moving or stripping them is not
a reduction), in-file `mod tests` blocks and everything after them do
not. `--against` reads the other side with `git show <rev>:<path>`, so
files that were added, deleted or renamed show up as +N / -N rows.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(text: str) -> int:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            return i
    return len(lines)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout


def here(paths) -> dict:
    """Repo-relative path -> non-test lines, in the working tree."""
    files = set()
    for p in map(Path, paths):
        p = p if p.is_absolute() else ROOT / p
        files.update(p.rglob("*.rs") if p.is_dir() else [p])
    return {
        str(f.resolve().relative_to(ROOT)): count(f.read_text()) for f in sorted(files)
    }


def at(rev: str, paths) -> dict:
    """The same at `rev`."""
    listed = git("ls-tree", "-r", "--name-only", rev, "--", *paths).splitlines()
    return {
        f: count(git("show", f"{rev}:{f}")) for f in sorted(listed) if f.endswith(".rs")
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["crates"])
    ap.add_argument("--against", metavar="REV", help="print the delta per file vs REV")
    args = ap.parse_args()

    now = here(args.paths)
    if not args.against:
        for f, n in now.items():
            print(f"{n:7d}  {f}")
        print(f"{sum(now.values()):7d}  total ({len(now)} files)")
        return 0

    rel = [str((ROOT / p).resolve().relative_to(ROOT)) for p in args.paths]
    then = at(args.against, rel)
    for f in sorted(set(now) | set(then)):
        a, b = then.get(f, 0), now.get(f, 0)
        if a != b:
            print(f"{a:7d} -> {b:7d}  {b - a:+6d}  {f}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{a:7d} -> {b:7d}  {b - a:+6d}  total vs {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
