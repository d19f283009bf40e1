"""Source model for nmx_lint's builtin frontend.

Loads a C++ translation unit (or header) and exposes:

  * ``code``      -- the text with comments and string/char literals blanked
                     out (offsets and line structure preserved), so checks can
                     pattern-match without tripping over prose;
  * suppressions  -- ``// nmx-lint: allow(<check>) <reason>`` comments, which
                     silence findings of <check> on their own line and the
                     next line; a missing reason is itself reported;
  * markers       -- ``// nmx-lint: engine-context`` / ``actor-context``
                     comments that tag the function declared on the following
                     line for the thread-discipline pass;
  * structural helpers -- brace matching and lambda-extent discovery shared
                     by the capacity and thread-discipline checks.

The model is deliberately lexical: it never sees preprocessor output and
does not resolve overloads.  Checks built on it trade a little precision for
zero build-time dependencies; when python-clang is installed the clang
frontend (clang_frontend.py) replaces the evidence source for the
type-sensitive checks with real AST queries.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Set, Tuple

CHECK_NAMES = (
    "determinism",
    "wire-conformance",
    "engine-capacity",
    "thread-discipline",
)

_ALLOW_RE = re.compile(r"nmx-lint:\s*allow\(([a-z\-]+)\)\s*(.*)")
_MARKER_RE = re.compile(r"nmx-lint:\s*(engine-context|actor-context)\b")


@dataclasses.dataclass(frozen=True)
class Finding:
    check: str
    path: str
    line: int  # 1-based
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


@dataclasses.dataclass
class Lambda:
    """One lambda expression: capture list + body extent (offsets in code)."""

    start: int          # offset of '['
    captures: str       # raw capture-list text
    body_begin: int     # offset of '{'
    body_end: int        # offset one past matching '}'


def blank_comments_and_strings(text: str) -> Tuple[str, List[Tuple[int, str]]]:
    """Return (code, comments) where code has comments and string/char
    literals replaced by spaces (newlines kept) and comments is a list of
    (offset, comment_text)."""
    out = list(text)
    comments: List[Tuple[int, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            comments.append((i, text[i:j]))
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            comments.append((i, text[i:j]))
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                j += 1
            else:
                j = n
            # keep the quotes themselves so adjacent tokens stay separated
            for k in range(i + 1, min(j - 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out), comments


def match_brace(code: str, open_pos: int, open_ch: str = "{", close_ch: str = "}") -> int:
    """Offset one past the brace matching code[open_pos]; len(code) if
    unbalanced."""
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


_LAMBDA_HEAD_RE = re.compile(
    r"\[(?P<cap>[^\[\]]*)\]\s*"          # capture list (no nested brackets)
    r"(?:\((?P<params>[^()]*)\)\s*)?"    # optional parameter list
    r"(?:mutable\s*)?(?:noexcept\s*)?"
    r"(?:->\s*[\w:<>,&*\s]+?\s*)?"
    r"\{"
)


def find_lambdas(code: str, begin: int = 0, end: Optional[int] = None) -> List[Lambda]:
    """Lambda expressions whose '[' lies in [begin, end). Lexical heuristic:
    a bracketed capture list followed (optionally via a parameter list) by a
    brace. Array subscripts never match because they are not followed by
    '{' or '(...) {'."""
    if end is None:
        end = len(code)
    out: List[Lambda] = []
    pos = begin
    while pos < end:
        m = _LAMBDA_HEAD_RE.search(code, pos, end)
        if m is None:
            break
        body_begin = m.end() - 1
        body_end = match_brace(code, body_begin)
        out.append(Lambda(m.start(), m.group("cap"), body_begin, body_end))
        pos = m.start() + 1
    return out


def split_top_level(text: str, sep: str = ",") -> List[str]:
    """Split on `sep` at zero bracket depth ((), [], {}, <>)."""
    parts: List[str] = []
    depth = 0
    cur: List[str] = []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


class SourceFile:
    def __init__(self, path: str, text: Optional[str] = None):
        self.path = path
        if text is None:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        self.text = text
        self.code, self._comments = blank_comments_and_strings(text)
        # line starts for offset -> line translation
        self._line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self._line_starts.append(i + 1)
        self.suppressions: Dict[int, Set[str]] = {}
        self.bad_suppressions: List[Finding] = []
        self.engine_context_fns: Set[str] = set()
        self.actor_context_fns: Set[str] = set()
        self._parse_annotations()

    # -- coordinates --------------------------------------------------------

    def line_of(self, offset: int) -> int:
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def line_text(self, line: int) -> str:
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        return self.text[start:] if end < 0 else self.text[start:end]

    def num_lines(self) -> int:
        return len(self._line_starts)

    # -- annotations --------------------------------------------------------

    def _parse_annotations(self) -> None:
        for off, comment in self._comments:
            line = self.line_of(off)
            m = _ALLOW_RE.search(comment)
            if m is not None:
                check, reason = m.group(1), m.group(2).strip()
                if check not in CHECK_NAMES:
                    self.bad_suppressions.append(
                        Finding("lint-annotation", self.path, line,
                                f"allow() names unknown check '{check}'"))
                    continue
                if not reason:
                    self.bad_suppressions.append(
                        Finding("lint-annotation", self.path, line,
                                "allow() suppression requires a justification "
                                "after the closing paren"))
                    continue
                for covered in (line, line + 1):
                    self.suppressions.setdefault(covered, set()).add(check)
            m = _MARKER_RE.search(comment)
            if m is not None:
                name = self._declared_fn_after(line)
                if name is None:
                    self.bad_suppressions.append(
                        Finding("lint-annotation", self.path, line,
                                f"{m.group(1)} marker is not followed by a "
                                "function declaration"))
                elif m.group(1) == "engine-context":
                    self.engine_context_fns.add(name)
                else:
                    self.actor_context_fns.add(name)

    def _declared_fn_after(self, marker_line: int) -> Optional[str]:
        """Name of the function declared on the first non-blank code line
        after `marker_line` (the identifier directly before a '('). A
        `template <...>` line in between is skipped, so a marker may sit
        above a function template."""
        for line in range(marker_line + 1, min(marker_line + 4, self.num_lines() + 1)):
            start = self._line_starts[line - 1]
            end = self.text.find("\n", start)
            code_line = self.code[start:(len(self.code) if end < 0 else end)]
            if not code_line.strip() or re.match(r"\s*template\s*<", code_line):
                continue
            m = re.search(r"(\w+)\s*\(", code_line)
            return m.group(1) if m else None
        return None

    def suppressed(self, line: int, check: str) -> bool:
        return check in self.suppressions.get(line, set())

    # -- structural helpers --------------------------------------------------

    def call_argument_ranges(self, fn_names: List[str]) -> List[Tuple[str, int, int]]:
        """(name, args_begin, args_end) offset ranges (exclusive of parens)
        for every call whose callee token is one of fn_names, e.g.
        ``eng_.schedule_in(`` or ``spawn(``."""
        out: List[Tuple[str, int, int]] = []
        pattern = re.compile(
            r"\b(" + "|".join(re.escape(n) for n in fn_names) + r")\s*\(")
        for m in pattern.finditer(self.code):
            # skip declarations/definitions: `EventId schedule_in(Time dt, ...)`
            # are recognizable by a type token directly before the name.
            close = match_brace(self.code, m.end() - 1, "(", ")")
            out.append((m.group(1), m.end(), close - 1))
        return out
