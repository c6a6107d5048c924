#!/usr/bin/env python3
"""Policy-purity lint: the shared-rules discipline, mechanically enforced.

The repo's central discipline (docs/ARCHITECTURE.md, "The shared-rules
pattern") is that every decision both the live code and the virtual-time
simulator must make lives in a *pure* policy header (``src/cnet/**/policy.hpp``)
— no atomics, no clocks, no randomness, no I/O, no mutable state, no calls
back into the impure service layer. That purity is what makes a CI-gated
simulator scenario a proof about the production path rather than a parallel
reimplementation. This lint turns the discipline from prose into a gate:

  banned-include       a policy header includes an impurity-smuggling
                       standard header (<atomic>, <mutex>, <thread>,
                       <chrono>, <random>, <iostream>, ...)
  banned-identifier    the code (comments/strings stripped) names an impure
                       facility anyway (std::atomic, std::chrono, rand, ...)
  impure-include       a policy header includes a non-policy cnet header
                       (only other policy headers and the pure, allowlisted
                       dist/topology.hpp are legal; allowlisted headers are
                       themselves checked transitively)
  mutable-global       namespace-scope state that is not even const — two
                       callers of a "pure" rule could observe each other
  nonconstexpr-global  namespace-scope constant that is const but not
                       constexpr: runtime-initialized globals have order-of-
                       initialization hazards and defeat constant folding
  doc-stale            the ARCHITECTURE.md rule-family table names a rule no
                       policy header declares (deleting a rule must fail CI
                       until the doc follows)
  doc-missing          a namespace-scope policy function is absent from
                       ARCHITECTURE.md (adding a rule must document it)

Pure stdlib, no third-party deps. Exit 0 = clean, 1 = violations.
``--self-test`` runs the checker against the fixtures in
tests/lint_fixtures/ and verifies every violation class both fires on its
bad fixture and stays quiet on the clean one.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from cpp_scan import REPO_ROOT, Violation, strip_comments_and_strings

# Standard headers whose presence in a policy header means the "pure
# function" story is already lost: threads, time, randomness, streams.
BANNED_STD_HEADERS = {
    "atomic",
    "barrier",
    "chrono",
    "condition_variable",
    "csignal",
    "cstdio",
    "ctime",
    "fstream",
    "future",
    "iostream",
    "istream",
    "latch",
    "mutex",
    "ostream",
    "random",
    "semaphore",
    "shared_mutex",
    "stop_token",
    "thread",
}

# Impure facilities by name, caught even when the header arrived
# transitively. Matched against code with comments and strings stripped.
BANNED_IDENTIFIER_PATTERNS = [
    (re.compile(r"\bstd::atomic\b"), "std::atomic"),
    (re.compile(r"\bstd::(?:recursive_|shared_|timed_)?mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::(?:this_)?thread\b"), "std::thread"),
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\bstd::(?:random_device|mt19937(?:_64)?|rand)\b"),
     "std::random"),
    (re.compile(r"\bstd::c(?:out|err|log|in)\b"), "std::iostream"),
    (re.compile(r"\b(?:printf|fprintf|rand|srand|time)\s*\("), "C runtime"),
]

# cnet headers a policy header may include: other policy headers, plus the
# explicitly allowlisted pure headers below (checked transitively).
ALLOWED_CNET_INCLUDES = {
    "cnet/dist/topology.hpp",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*(<([^>]+)>|"([^"]+)")', re.M)

# Keywords/attributes that can precede a '(' in a declaration without being
# the declared function's name.
NOT_A_FUNCTION_NAME = {
    "alignas", "alignof", "decltype", "defined", "deprecated", "for", "if",
    "likely", "maybe_unused", "nodiscard", "noexcept", "noreturn", "requires",
    "return", "sizeof", "static_assert", "switch", "unlikely", "while",
}

# A namespace-scope statement starting with one of these is not a variable
# declaration (type/alias/forward-decl machinery).
NON_VARIABLE_LEADS = {
    "class", "concept", "enum", "extern", "friend", "namespace",
    "static_assert", "struct", "template", "typedef", "union", "using",
}


def namespace_scope_statements(code: str):
    """Yield (line, text) for each statement at pure namespace scope.

    Walks the comment/string-stripped code tracking a brace stack. Braces
    opened by a ``namespace`` keep us "at namespace scope"; every other
    brace (struct/class/enum bodies, function bodies, braced initializers)
    is opaque — its contents are skipped. A statement ends at ';' or at the
    close of a non-namespace brace back at namespace scope (a function
    definition's body), whichever comes first.
    """
    stack = []  # True = namespace brace, False = opaque brace
    buf = []
    buf_line = 1
    line = 1
    i = 0
    n = len(code)

    def at_ns_scope() -> bool:
        return all(stack)

    def flush():
        nonlocal buf, buf_line
        stmt = " ".join("".join(buf).split())
        if stmt:
            yield_val = (buf_line, stmt)
            buf = []
            buf_line = line
            return yield_val
        buf = []
        buf_line = line
        return None

    while i < n:
        ch = code[i]
        if ch == "\n":
            line += 1
            if not buf:
                buf_line = line
            else:
                buf.append(" ")
            i += 1
            continue
        if at_ns_scope():
            if ch == "{":
                stmt_so_far = "".join(buf).strip()
                is_namespace = re.match(r"(inline\s+)?namespace\b",
                                        stmt_so_far) is not None
                stack.append(bool(is_namespace))
                if is_namespace:
                    out = flush()
                    if out:
                        yield out
                else:
                    buf.append(" ")  # opaque body elided from the statement
                i += 1
                continue
            if ch == "}":
                if stack:
                    stack.pop()
                out = flush()
                if out:
                    yield out
                i += 1
                continue
            if ch == ";":
                out = flush()
                if out:
                    yield out
                i += 1
                continue
            if ch == "#":  # preprocessor line: consume to EOL, not a stmt
                while i < n and code[i] != "\n":
                    i += 1
                continue
            buf.append(ch)
            i += 1
        else:
            # Inside an opaque brace: only track nesting.
            if ch == "{":
                stack.append(False)
            elif ch == "}":
                if stack:
                    stack.pop()
                if at_ns_scope():
                    # Closed a function/struct body at namespace scope: the
                    # accumulated head (e.g. "inline double f(x)") is one
                    # complete declaration.
                    out = flush()
                    if out:
                        yield out
            i += 1


def declared_function_names(code: str):
    """Names of functions declared/defined at namespace scope."""
    names = set()
    for _line, stmt in namespace_scope_statements(code):
        lead = stmt.split(None, 1)[0] if stmt else ""
        if lead in NON_VARIABLE_LEADS and lead != "template":
            continue
        if "(" not in stmt:
            continue
        for match in re.finditer(r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\(", stmt):
            name = match.group(1)
            if name in NOT_A_FUNCTION_NAME or name.isupper():
                continue
            names.add(name)
            break  # leftmost plausible identifier is the declared name
    return names


def check_globals(path: Path, code: str):
    """mutable-global / nonconstexpr-global over namespace-scope variables."""
    violations = []
    for line, stmt in namespace_scope_statements(code):
        if not stmt or stmt.startswith("["):
            continue
        lead = stmt.split(None, 1)[0]
        if lead in NON_VARIABLE_LEADS:
            continue
        if "(" in stmt:  # function declaration/definition
            continue
        tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_:]*", stmt)
        if len(tokens) < 2:  # need at least a type and a name
            continue
        if "constexpr" in tokens or "consteval" in tokens or \
                "constinit" in tokens:
            continue
        name = tokens[-1] if "=" not in stmt else \
            re.findall(r"[A-Za-z_][A-Za-z0-9_]*", stmt.split("=", 1)[0])[-1]
        if "const" in tokens:
            violations.append(Violation(
                path, line, "nonconstexpr-global",
                f"namespace-scope constant '{name}' is const but not "
                "constexpr (runtime init order hazard; make it "
                "'inline constexpr')"))
        else:
            violations.append(Violation(
                path, line, "mutable-global",
                f"mutable namespace-scope state '{name}' in a policy header "
                "(pure rules cannot share mutable state)"))
    return violations


def check_file(path: Path, *, transitive_of: str | None = None):
    """All single-file checks. Returns a list of Violations."""
    text = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(text)
    includes = strip_comments_and_strings(text, strings=False)
    violations = []
    origin = f" (allowlisted from {transitive_of})" if transitive_of else ""

    for match in INCLUDE_RE.finditer(includes):
        line = includes.count("\n", 0, match.start()) + 1
        angle, quoted = match.group(2), match.group(3)
        if angle is not None:
            if angle in BANNED_STD_HEADERS:
                violations.append(Violation(
                    path, line, "banned-include",
                    f"policy header includes <{angle}>{origin}"))
        elif quoted is not None and quoted.startswith("cnet/"):
            if quoted in ALLOWED_CNET_INCLUDES or \
                    quoted.endswith("/policy.hpp"):
                continue
            violations.append(Violation(
                path, line, "impure-include",
                f'policy header includes non-policy cnet header "{quoted}"'
                f"{origin}"))

    for pattern, label in BANNED_IDENTIFIER_PATTERNS:
        for match in pattern.finditer(code):
            line = code.count("\n", 0, match.start()) + 1
            violations.append(Violation(
                path, line, "banned-identifier",
                f"policy code references {label} "
                f"('{match.group(0).strip()}'){origin}"))

    violations.extend(check_globals(path, code))
    return violations


def find_policy_headers(root: Path):
    return sorted((root / "src" / "cnet").glob("**/policy.hpp"))


DOC_TABLE_HEADING = "Current rule families:"
IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def doc_table_identifiers(doc_text: str):
    """Backticked identifiers in column 1 of the rule-family table."""
    idents = {}
    in_table = False
    for lineno, line in enumerate(doc_text.splitlines(), start=1):
        if DOC_TABLE_HEADING in line:
            in_table = True
            continue
        if in_table:
            stripped = line.strip()
            if stripped.startswith("|"):
                first_col = stripped.split("|")[1]
                if set(first_col.strip()) <= {"-", ":", " "}:
                    continue  # separator row
                for token in re.findall(r"`([^`]+)`", first_col):
                    if IDENT_RE.match(token):
                        idents.setdefault(token, lineno)
            elif stripped and not stripped.startswith("|"):
                if idents:  # table ended
                    break
    return idents


def check_docs(doc_path: Path, header_paths):
    """Both directions of the doc cross-check."""
    violations = []
    doc_text = doc_path.read_text(encoding="utf-8")
    table = doc_table_identifiers(doc_text)

    declared = {}
    all_words = set()
    for hpath in header_paths:
        code = strip_comments_and_strings(hpath.read_text(encoding="utf-8"))
        for name in declared_function_names(code):
            declared.setdefault(name, hpath)
        all_words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))

    for ident, lineno in sorted(table.items()):
        if ident not in all_words:
            violations.append(Violation(
                doc_path, lineno, "doc-stale",
                f"rule-family table names `{ident}` but no policy header "
                "declares it"))

    doc_mentions = set(re.findall(r"`([^`\s]+)`", doc_text))
    for name, hpath in sorted(declared.items()):
        if name not in doc_mentions:
            try:
                rel = hpath.resolve().relative_to(REPO_ROOT)
            except ValueError:
                rel = hpath
            violations.append(Violation(
                doc_path, 1, "doc-missing",
                f"policy rule `{name}` ({rel}) is not documented in "
                f"{doc_path.name}'s rule-family table"))
    return violations


def run_tree(root: Path) -> int:
    headers = find_policy_headers(root)
    if not headers:
        print(f"error: no policy headers found under {root}/src/cnet",
              file=sys.stderr)
        return 1
    violations = []
    for header in headers:
        violations.extend(check_file(header))
    # Transitive purity of allowlisted headers: an impure facility smuggled
    # through topology.hpp is exactly as fatal as a direct include.
    for allowed in sorted(ALLOWED_CNET_INCLUDES):
        apath = root / "src" / allowed
        if apath.exists():
            violations.extend(
                check_file(apath, transitive_of="policy allowlist"))
    doc_path = root / "docs" / "ARCHITECTURE.md"
    if doc_path.exists():
        violations.extend(check_docs(doc_path, headers))
    else:
        violations.append(Violation(doc_path, 1, "doc-stale",
                                    "docs/ARCHITECTURE.md not found"))
    for v in violations:
        print(v)
    checked = len(headers) + len(ALLOWED_CNET_INCLUDES)
    if violations:
        print(f"\ncheck_policy_purity: {len(violations)} violation(s) "
              f"across {checked} header(s).", file=sys.stderr)
        return 1
    print(f"check_policy_purity: {checked} header(s) pure, doc cross-check "
          "clean.")
    return 0


# --------------------------------------------------------------- self-test

FIXTURE_DIR = REPO_ROOT / "tests" / "lint_fixtures"

# fixture file -> exact set of violation codes it must produce.
FILE_FIXTURES = {
    "clean_policy.hpp": set(),
    "bad_banned_include.hpp": {"banned-include"},
    "bad_banned_identifier.hpp": {"banned-identifier"},
    "bad_impure_include.hpp": {"impure-include"},
    "bad_mutable_global.hpp": {"mutable-global"},
    "bad_nonconstexpr_global.hpp": {"nonconstexpr-global"},
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

    clean = FIXTURE_DIR / "clean_policy.hpp"
    doc_ok = FIXTURE_DIR / "doc_ok.md"
    doc_bad = FIXTURE_DIR / "doc_out_of_sync.md"
    if clean.exists() and doc_ok.exists():
        got = {v.code for v in check_docs(doc_ok, [clean])}
        if got:
            failures.append(f"doc_ok.md: expected clean, got {sorted(got)}")
    else:
        failures.append("missing doc_ok.md fixture")
    if clean.exists() and doc_bad.exists():
        got = {v.code for v in check_docs(doc_bad, [clean])}
        want = {"doc-stale", "doc-missing"}
        if got != want:
            failures.append(
                f"doc_out_of_sync.md: expected {sorted(want)}, "
                f"got {sorted(got)}")
    else:
        failures.append("missing doc_out_of_sync.md fixture")

    # The function-name extractor feeds both doc directions; pin it.
    if clean.exists():
        code = strip_comments_and_strings(clean.read_text(encoding="utf-8"))
        names = declared_function_names(code)
        want_names = {"frob_margin", "settle_ratio"}
        if names != want_names:
            failures.append(
                f"clean_policy.hpp: extractor found {sorted(names)}, "
                f"expected {sorted(want_names)}")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_policy_purity --self-test: {len(FILE_FIXTURES)} file "
          "fixtures + 2 doc fixtures + extractor pin all behaved.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repo root (default: inferred from script path)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the checker against tests/lint_fixtures/")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_tree(args.root)


if __name__ == "__main__":
    sys.exit(main())
