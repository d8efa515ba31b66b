"""rfid-verify --fast: sub-second, file-local comment-hygiene checks.

These need no parsing and no compile_commands.json, so they run before any
build exists:

  safety-comment  every RFID_NO_THREAD_SAFETY_ANALYSIS outside the header
                  that defines it has a "// SAFETY" justification comment
                  starting within the SAFETY_WINDOW lines above it.
  nolint-format   every NOLINT names a check and a reason:
                  "// NOLINT(check-name): why".
  allow-format    every RFID_VERIFY_ALLOW names a known rfid-verify check
                  (config.CHECKS) and a reason:
                  "// RFID_VERIFY_ALLOW(check): why". The full analysis
                  re-validates and also rejects unused suppressions; this
                  path catches malformed ones without waiting for it.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

import config
from checks import Violation

FAST_CHECKS = ("safety-comment", "nolint-format", "allow-format")

NO_TSA = "RFID_NO_THREAD_SAFETY_ANALYSIS"
# The header that defines the macro (and documents the policy).
NO_TSA_DEFINING = "util/thread_annotations.h"
SAFETY_RE = re.compile(r"//\s*SAFETY")
# How many lines above an escape the SAFETY comment may start. The comment
# block is usually several lines (and a /// doc comment may sit between it
# and the declaration); any line of it within the window counts.
SAFETY_WINDOW = 12

NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?\b(?P<rest>[^\n]*)")
NOLINT_OK_RE = re.compile(r"^\([\w\-.,* ]+\)\s*:\s*\S")

ALLOW_RE = re.compile(r"RFID_VERIFY_ALLOW\b(?P<rest>[^\n]*)")
ALLOW_OK_RE = re.compile(r"^\(\s*(?P<check>[\w-]+)\s*\)\s*:\s*\S")


def _code_part(line: str) -> str:
    """The line with its // comment removed. Good enough for these
    patterns: the escape macro never legitimately appears inside a block
    comment."""
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def lint_file(path: Path) -> Tuple[List[Violation], int]:
    """Returns the file's violations and its count of justified escapes."""
    out: List[Violation] = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        return [Violation("safety-comment", str(path), 0,
                          "not valid UTF-8")], 0
    defining = path.as_posix().endswith(NO_TSA_DEFINING)
    escapes = 0
    for i, raw in enumerate(lines, start=1):
        if NO_TSA in _code_part(raw) and not defining:
            window = lines[max(0, i - 1 - SAFETY_WINDOW):i]
            if any(SAFETY_RE.search(w) for w in window):
                escapes += 1
            else:
                out.append(Violation(
                    "safety-comment", str(path), i,
                    f"{NO_TSA} without a '// SAFETY:' justification within "
                    f"the {SAFETY_WINDOW} lines above"))

        for m in NOLINT_RE.finditer(raw):
            if not NOLINT_OK_RE.match(m.group("rest").strip()):
                out.append(Violation(
                    "nolint-format", str(path), i,
                    "NOLINT must name its check and a reason: "
                    "// NOLINT(check-name): why"))

        for m in ALLOW_RE.finditer(raw):
            ok = ALLOW_OK_RE.match(m.group("rest").strip())
            if not ok:
                out.append(Violation(
                    "allow-format", str(path), i,
                    "RFID_VERIFY_ALLOW must name a check and a reason: "
                    "// RFID_VERIFY_ALLOW(check): why"))
            elif ok.group("check") not in config.CHECKS:
                out.append(Violation(
                    "allow-format", str(path), i,
                    f"RFID_VERIFY_ALLOW names unknown check "
                    f"'{ok.group('check')}' (known: "
                    f"{', '.join(sorted(config.CHECKS))})"))
    return out, escapes


def run(paths: List[Path]) -> Tuple[List[Violation], int]:
    violations: List[Violation] = []
    escapes = 0
    for p in paths:
        found, n = lint_file(p)
        violations.extend(found)
        escapes += n
    return violations, escapes
