"""The C++ source scanner the repo's lints share.

``Violation`` is one finding, printed as ``path:line: [code] message``
with the path relative to the repo root. ``strip_comments_and_strings``
blanks out comments (and, by default, literals) so a lint's patterns only
ever match code. tools/check_policy_purity.py and tools/check_raw_sync.py
import both.
"""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


class Violation:
    def __init__(self, path: Path, line: int, code: str, message: str):
        self.path = path
        self.line = line
        self.code = code
        self.message = message

    def __str__(self) -> str:
        try:
            rel = self.path.resolve().relative_to(REPO_ROOT)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.code}] {self.message}"


def strip_comments_and_strings(text: str, *, strings: bool = True) -> str:
    """Blank out comments (and, by default, string/char literals),
    preserving line layout. ``strings=False`` keeps literals — needed when
    scanning for quoted ``#include "..."`` paths. A ``'`` directly after an
    alphanumeric is a digit separator (1'000), not a char literal."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif ch == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif strings and (ch == '"' or ch == "'"):
            if ch == "'" and out and (out[-1].isalnum() or out[-1] == "_"):
                out.append(" ")  # digit separator
                i += 1
                continue
            quote = ch
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)
