#!/usr/bin/env python3
"""Negative-corpus driver: asserts rfid-verify REJECTS a known-bad snippet.

Usage: check_negative.py [--fast] <check-name> <file.cc> [<file.cc>...]

Passes when rfid-verify exits non-zero AND the output names the expected
check. --fast runs the tool's file-local comment-hygiene mode instead of
the full analysis. If the tool ever goes blind to one of these seeded
violations — a parser regression, a deleted check, an over-broad
allowlist — this flips the ctest suite red, the same contract as
tests/negative/ for the thread-safety wall.
"""

import subprocess
import sys
from pathlib import Path


def main() -> int:
    args = sys.argv[1:]
    mode = []
    if args and args[0] == "--fast":
        mode, args = ["--fast"], args[1:]
    if len(args) < 2:
        print(__doc__)
        return 2
    check, files = args[0], args[1:]
    repo = Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "rfid_verify"), *mode,
         "--no-cache", "--file", *files],
        capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    if proc.returncode == 0:
        print(f"FAIL: rfid-verify passed the known-bad snippet(s) {files}")
        print(out)
        return 1
    if f"[{check}]" not in out:
        print(f"FAIL: expected a [{check}] violation, tool reported:")
        print(out)
        return 1
    print(f"OK: rfid-verify rejected {files} with [{check}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
