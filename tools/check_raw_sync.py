#!/usr/bin/env python3
"""No-raw-sync lint: every lock, yield and aligned block goes through util/.

PR 9 migrated the tree onto util::Mutex / util::MutexLock (thread-safety-
annotated), and the schedule checker (src/cnet/check/) now virtualizes that
layer: under CNET_SCHED_CHECK every util::Mutex operation and
util::sched_yield is one schedulable step the explorer controls. A raw
``std::mutex`` (or a bare ``std::this_thread::yield`` spin) sneaking back
in outside util/ would be invisible to the checker *and* to the clang
Thread Safety Analysis job — a blind spot in both static-analysis gates at
once. This lint turns that rule from prose into CI:

  raw-include     a file includes <mutex>, <shared_mutex> or
                  <condition_variable> directly
  raw-mutex       code (comments/strings stripped) names std::mutex,
                  std::recursive_mutex, std::shared_mutex, std::timed_mutex
                  or std::condition_variable
  raw-lock        code names std::lock_guard, std::scoped_lock,
                  std::unique_lock or std::shared_lock
  raw-yield       code calls std::this_thread::yield directly (use
                  util::sched_yield, which the explorer can deschedule)
  raw-aligned-alloc
                  code names std::align_val_t, aligned_alloc,
                  posix_memalign or memalign (use util::LineBlock or
                  util::LineArray, which align a plain allocation by hand:
                  the aligned allocator costs several times as much, and
                  util is the one place that aligns memory)

Scope: src/cnet/**/*.{hpp,cpp} minus two allowlisted subtrees:
  src/cnet/util/   — the wrappers themselves (util::Mutex owns the real
                     std::mutex; sched_point.hpp owns the real yield;
                     cacheline.hpp owns block alignment)
  src/cnet/check/  — the explorer's control plane: its scheduler must run
                     on real, *uncontrolled* primitives or it would try to
                     schedule itself

Pure stdlib, no third-party deps. Exit 0 = clean, 1 = violations.
``--self-test`` runs the checker against tests/lint_fixtures/raw_sync/ and
verifies every violation class fires on its bad fixture and stays quiet on
the clean one.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from cpp_scan import REPO_ROOT, Violation, strip_comments_and_strings

# Subtrees (relative to src/cnet) where the raw primitives are the point.
ALLOWED_SUBTREES = ("util/", "check/")

RAW_INCLUDES = {"mutex", "shared_mutex", "condition_variable"}

IDENTIFIER_RULES = [
    ("raw-mutex",
     re.compile(r"\bstd::(?:recursive_|shared_|timed_)?mutex\b"),
     "use util::Mutex (annotated, schedule-checkable)"),
    ("raw-mutex",
     re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "condition variables live in util/ or check/ only"),
    ("raw-lock",
     re.compile(r"\bstd::(?:lock_guard|scoped_lock|unique_lock|shared_lock)"
                r"\b"),
     "use util::MutexLock / util::DualMutexLock"),
    ("raw-yield",
     re.compile(r"\bstd::this_thread::yield\b"),
     "use util::sched_yield so the schedule checker can deschedule the "
     "spin"),
    ("raw-aligned-alloc",
     re.compile(r"\bstd::align_val_t\b|\b(?:std::)?aligned_alloc\b|"
                r"\bposix_memalign\b|\bmemalign\b"),
     "build padded blocks with util::LineBlock / util::LineArray, which "
     "align a plain allocation by hand"),
]

INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<([^>]+)>", re.M)


def check_file(path: Path):
    """All per-file checks. Returns a list of Violations."""
    text = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(text)
    violations = []

    for match in INCLUDE_RE.finditer(code):
        if match.group(1) in RAW_INCLUDES:
            line = code.count("\n", 0, match.start()) + 1
            violations.append(Violation(
                path, line, "raw-include",
                f"direct #include <{match.group(1)}> outside util/ and "
                "check/ — the raw primitives belong behind the util "
                "wrappers"))

    for code_name, pattern, hint in IDENTIFIER_RULES:
        for match in pattern.finditer(code):
            line = code.count("\n", 0, match.start()) + 1
            violations.append(Violation(
                path, line, code_name,
                f"'{match.group(0)}' outside util/ and check/ — {hint}"))
    return violations


def find_scoped_files(root: Path):
    base = root / "src" / "cnet"
    files = []
    for path in sorted(base.glob("**/*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(base).as_posix()
        if any(rel.startswith(prefix) for prefix in ALLOWED_SUBTREES):
            continue
        files.append(path)
    return files


def run_tree(root: Path) -> int:
    files = find_scoped_files(root)
    if not files:
        print(f"error: no sources found under {root}/src/cnet",
              file=sys.stderr)
        return 1
    violations = []
    for path in files:
        violations.extend(check_file(path))
    for v in violations:
        print(v)
    if violations:
        print(f"\ncheck_raw_sync: {len(violations)} violation(s) across "
              f"{len(files)} file(s).", file=sys.stderr)
        return 1
    print(f"check_raw_sync: {len(files)} file(s) clean — all sync and "
          "block alignment go through util/.")
    return 0


# --------------------------------------------------------------- self-test

FIXTURE_DIR = REPO_ROOT / "tests" / "lint_fixtures" / "raw_sync"

# fixture file -> exact set of violation codes it must produce.
FILE_FIXTURES = {
    "clean_sync.cpp": set(),
    "bad_raw_include.cpp": {"raw-include", "raw-mutex", "raw-lock"},
    "bad_raw_mutex.cpp": {"raw-mutex"},
    "bad_raw_lock.cpp": {"raw-lock"},
    "bad_raw_yield.cpp": {"raw-yield"},
    "bad_raw_aligned_alloc.cpp": {"raw-aligned-alloc"},
    "clean_aligned_block.cpp": set(),
}


def run_self_test() -> int:
    failures = []
    for name, expected in sorted(FILE_FIXTURES.items()):
        path = FIXTURE_DIR / name
        if not path.exists():
            failures.append(f"missing fixture {path}")
            continue
        got = {v.code for v in check_file(path)}
        if got != expected:
            failures.append(
                f"{name}: expected violation codes {sorted(expected) or '{}'}"
                f", got {sorted(got) or '{}'}")

    # The scope rule is half the checker: util/ and check/ must be excluded,
    # everything else included.
    scoped = {p.relative_to(REPO_ROOT / "src" / "cnet").as_posix()
              for p in find_scoped_files(REPO_ROOT)}
    for banned_prefix in ALLOWED_SUBTREES:
        leaked = sorted(p for p in scoped if p.startswith(banned_prefix))
        if leaked:
            failures.append(f"scope leak: {leaked[:3]} under {banned_prefix}")
    if not any(p.startswith("svc/") for p in scoped):
        failures.append("scope miss: no svc/ sources in scope")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_raw_sync --self-test: {len(FILE_FIXTURES)} file fixtures "
          "+ scope pin all behaved.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repo root (default: inferred from script path)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker against "
                             "tests/lint_fixtures/raw_sync/")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_tree(args.root)


if __name__ == "__main__":
    sys.exit(main())
