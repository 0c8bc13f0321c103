"""A from-scratch regular-expression engine (Thompson NFA construction).

Farview integrates an FPGA regex library (Caribou [42]) whose key property
is that "the performance of the operator is dominated by the length of the
string and does not depend on the complexity of the regular expression".
A Thompson NFA simulation has exactly that property in software: O(n * m)
with no backtracking blow-up, linear in string length for a fixed pattern.

Supported syntax (byte-oriented):

* literals, ``.`` (any byte except newline), escapes ``\\d \\w \\s \\D \\W \\S``
  and escaped metacharacters,
* character classes ``[a-z0-9_]`` and negated classes ``[^...]``,
* grouping ``( ... )``, alternation ``|``,
* repetition ``* + ?`` and bounded ``{m}``, ``{m,}``, ``{m,n}``,
* anchors ``^`` (pattern start) and ``$`` (pattern end).

The public API is :class:`CompiledRegex` with RE2-style ``search`` /
``fullmatch`` predicates over ``bytes`` and ``search_column``, the one
loop every char-column filter (the node operator, the client kernel, a
view's mask stage) matches with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import RegexSyntaxError

_MAX_BOUNDED_REPEAT = 256


# --------------------------------------------------------------------------
# Parsing: pattern -> AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _CharClass:
    """A predicate over byte values, stored as a 256-bit membership table."""

    table: frozenset[int]

    def matches(self, byte: int) -> bool:
        return byte in self.table


def _class_from_ranges(ranges: list[tuple[int, int]], negate: bool) -> _CharClass:
    members = set()
    for lo, hi in ranges:
        if lo > hi:
            raise RegexSyntaxError(f"bad class range {chr(lo)}-{chr(hi)}")
        members.update(range(lo, hi + 1))
    if negate:
        members = set(range(256)) - members
    return _CharClass(frozenset(members))


_DIGITS = [(ord("0"), ord("9"))]
_WORD = [(ord("a"), ord("z")), (ord("A"), ord("Z")), (ord("0"), ord("9")),
         (ord("_"), ord("_"))]
_SPACE = [(ord(c), ord(c)) for c in " \t\n\r\f\v"]

_ESCAPE_CLASSES = {
    "d": _class_from_ranges(_DIGITS, negate=False),
    "D": _class_from_ranges(_DIGITS, negate=True),
    "w": _class_from_ranges(_WORD, negate=False),
    "W": _class_from_ranges(_WORD, negate=True),
    "s": _class_from_ranges(_SPACE, negate=False),
    "S": _class_from_ranges(_SPACE, negate=True),
}

_ANY = _CharClass(frozenset(b for b in range(256) if b != ord("\n")))


# AST nodes
@dataclass(frozen=True)
class _Char:
    cls: _CharClass


@dataclass(frozen=True)
class _Concat:
    parts: tuple


@dataclass(frozen=True)
class _Alt:
    options: tuple


@dataclass(frozen=True)
class _Repeat:
    inner: object
    min_count: int
    max_count: int | None  # None = unbounded


@dataclass(frozen=True)
class _Empty:
    pass


class _Parser:
    """Recursive-descent parser for the supported regex subset."""

    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0
        self.anchored_start = False
        self.anchored_end = False

    def parse(self):
        if self._peek() == "^":
            self.anchored_start = True
            self.pos += 1
        node = self._alternation()
        if self.pos < len(self.pattern):
            raise RegexSyntaxError(
                f"unexpected {self.pattern[self.pos]!r} at {self.pos} in "
                f"{self.pattern!r}")
        return node

    # grammar: alternation := concat ('|' concat)*
    def _alternation(self):
        options = [self._concat()]
        while self._peek() == "|":
            self.pos += 1
            options.append(self._concat())
        if len(options) == 1:
            return options[0]
        return _Alt(tuple(options))

    def _concat(self):
        parts = []
        while True:
            ch = self._peek()
            if ch is None or ch in "|)":
                break
            if ch == "$" and self.pos == len(self.pattern) - 1:
                self.anchored_end = True
                self.pos += 1
                break
            parts.append(self._repetition())
        if not parts:
            return _Empty()
        if len(parts) == 1:
            return parts[0]
        return _Concat(tuple(parts))

    def _repetition(self):
        atom = self._atom()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                atom = _Repeat(atom, 0, None)
            elif ch == "+":
                self.pos += 1
                atom = _Repeat(atom, 1, None)
            elif ch == "?":
                self.pos += 1
                atom = _Repeat(atom, 0, 1)
            elif ch == "{":
                atom = _Repeat(atom, *self._braces())
            else:
                return atom

    def _braces(self) -> tuple[int, int | None]:
        end = self.pattern.find("}", self.pos)
        if end < 0:
            raise RegexSyntaxError(f"unterminated {{...}} in {self.pattern!r}")
        body = self.pattern[self.pos + 1:end]
        self.pos = end + 1
        try:
            if "," not in body:
                m = int(body)
                bounds = (m, m)
            else:
                lo_s, hi_s = body.split(",", 1)
                lo = int(lo_s)
                bounds = (lo, int(hi_s) if hi_s.strip() else None)
        except ValueError as exc:
            raise RegexSyntaxError(f"bad repetition {{{body}}}") from exc
        lo, hi = bounds
        if lo < 0 or (hi is not None and (hi < lo or hi > _MAX_BOUNDED_REPEAT)):
            raise RegexSyntaxError(f"bad repetition bounds {{{body}}}")
        return bounds

    def _atom(self):
        ch = self._peek()
        if ch is None:
            raise RegexSyntaxError(f"dangling operator in {self.pattern!r}")
        if ch == "(":
            self.pos += 1
            node = self._alternation()
            if self._peek() != ")":
                raise RegexSyntaxError(f"unbalanced '(' in {self.pattern!r}")
            self.pos += 1
            return node
        if ch == "[":
            return _Char(self._char_class())
        if ch == ".":
            self.pos += 1
            return _Char(_ANY)
        if ch == "\\":
            return _Char(self._escape())
        if ch in "*+?{":
            raise RegexSyntaxError(
                f"repetition {ch!r} with nothing to repeat at {self.pos}")
        if ch in ")|":
            raise RegexSyntaxError(f"unexpected {ch!r} at {self.pos}")
        self.pos += 1
        return _Char(_CharClass(frozenset({ord(ch)})))

    def _escape(self) -> _CharClass:
        self.pos += 1
        if self.pos >= len(self.pattern):
            raise RegexSyntaxError(f"dangling escape in {self.pattern!r}")
        ch = self.pattern[self.pos]
        self.pos += 1
        if ch in _ESCAPE_CLASSES:
            return _ESCAPE_CLASSES[ch]
        if ch == "n":
            return _CharClass(frozenset({ord("\n")}))
        if ch == "t":
            return _CharClass(frozenset({ord("\t")}))
        if ch == "r":
            return _CharClass(frozenset({ord("\r")}))
        # Escaped literal (metacharacters and anything else).
        return _CharClass(frozenset({ord(ch)}))

    def _char_class(self) -> _CharClass:
        # self.pattern[self.pos] == '['
        self.pos += 1
        negate = self._peek() == "^"
        if negate:
            self.pos += 1
        ranges: list[tuple[int, int]] = []
        closed = False
        while self.pos < len(self.pattern):
            ch = self.pattern[self.pos]
            if ch == "]" and ranges:
                self.pos += 1
                closed = True
                break
            if ch == "\\":
                cls = self._escape()
                ranges.extend((b, b) for b in cls.table)
                continue
            self.pos += 1
            lo = ord(ch)
            if (self._peek() == "-" and self.pos + 1 < len(self.pattern)
                    and self.pattern[self.pos + 1] != "]"):
                self.pos += 1
                hi = ord(self.pattern[self.pos])
                self.pos += 1
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))
        if not closed:
            raise RegexSyntaxError(f"unterminated class in {self.pattern!r}")
        return _class_from_ranges(ranges, negate)

    def _peek(self) -> str | None:
        if self.pos >= len(self.pattern):
            return None
        return self.pattern[self.pos]


# --------------------------------------------------------------------------
# Compilation: AST -> NFA (Thompson construction)
# --------------------------------------------------------------------------

@dataclass
class _State:
    index: int
    #: character edges: list of (char class, target state index)
    edges: list[tuple[_CharClass, int]] = field(default_factory=list)
    #: epsilon edges: target state indices
    eps: list[int] = field(default_factory=list)


class _Builder:
    def __init__(self) -> None:
        self.states: list[_State] = []

    def new_state(self) -> int:
        state = _State(len(self.states))
        self.states.append(state)
        return state.index

    def compile(self, node, start: int, accept: int) -> None:
        """Wire ``node`` between ``start`` and ``accept``."""
        if isinstance(node, _Empty):
            self.states[start].eps.append(accept)
        elif isinstance(node, _Char):
            self.states[start].edges.append((node.cls, accept))
        elif isinstance(node, _Concat):
            current = start
            for part in node.parts[:-1]:
                nxt = self.new_state()
                self.compile(part, current, nxt)
                current = nxt
            self.compile(node.parts[-1], current, accept)
        elif isinstance(node, _Alt):
            for option in node.options:
                s = self.new_state()
                self.states[start].eps.append(s)
                self.compile(option, s, accept)
        elif isinstance(node, _Repeat):
            self._compile_repeat(node, start, accept)
        else:  # pragma: no cover - parser produces only the above
            raise RegexSyntaxError(f"unknown AST node {node!r}")

    def _compile_repeat(self, node: _Repeat, start: int, accept: int) -> None:
        lo, hi = node.min_count, node.max_count
        current = start
        # Mandatory copies.
        for _ in range(lo):
            nxt = self.new_state()
            self.compile(node.inner, current, nxt)
            current = nxt
        if hi is None:
            # Kleene loop: current --inner--> current, current --eps--> accept
            loop = self.new_state()
            self.states[current].eps.append(loop)
            inner_end = self.new_state()
            self.compile(node.inner, loop, inner_end)
            self.states[inner_end].eps.append(loop)
            self.states[loop].eps.append(accept)
        else:
            # Optional copies.
            for _ in range(hi - lo):
                self.states[current].eps.append(accept)
                nxt = self.new_state()
                self.compile(node.inner, current, nxt)
                current = nxt
            self.states[current].eps.append(accept)


class CompiledRegex:
    """A compiled pattern supporting ``search`` and ``fullmatch`` on bytes."""

    def __init__(self, pattern: str):
        parser = _Parser(pattern)
        ast = parser.parse()
        self.pattern = pattern
        self.anchored_start = parser.anchored_start
        self.anchored_end = parser.anchored_end
        builder = _Builder()
        self._start = builder.new_state()
        self._accept = builder.new_state()
        builder.compile(ast, self._start, self._accept)
        self._states = builder.states
        # Precompute per-state byte-transition tables for speed.
        self._closure_cache: dict[frozenset[int], frozenset[int]] = {}

    # -- NFA simulation ----------------------------------------------------------
    def _eps_closure(self, states: frozenset[int]) -> frozenset[int]:
        cached = self._closure_cache.get(states)
        if cached is not None:
            return cached
        stack = list(states)
        seen = set(states)
        while stack:
            s = stack.pop()
            for target in self._states[s].eps:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        result = frozenset(seen)
        self._closure_cache[states] = result
        return result

    def _step(self, states: frozenset[int], byte: int) -> frozenset[int]:
        nxt = set()
        for s in states:
            for cls, target in self._states[s].edges:
                if cls.matches(byte):
                    nxt.add(target)
        if not nxt:
            return frozenset()
        return self._eps_closure(frozenset(nxt))

    def fullmatch(self, data: bytes) -> bool:
        """Whether the pattern matches the entire input."""
        current = self._eps_closure(frozenset({self._start}))
        for byte in data:
            if not current:
                return False
            current = self._step(current, byte)
        return self._accept in current

    def search(self, data: bytes) -> bool:
        """Whether the pattern matches anywhere in the input (RE2 semantics,
        honouring ``^``/``$`` anchors)."""
        if self.anchored_start and self.anchored_end:
            return self.fullmatch(data)
        start_closure = self._eps_closure(frozenset({self._start}))
        current: frozenset[int] = frozenset()
        for i in range(len(data) + 1):
            if not self.anchored_start or i == 0:
                current = self._eps_closure(current | start_closure)
            if self._accept in current and not self.anchored_end:
                return True
            if i == len(data):
                break
            current = self._step(current, data[i])
        return self._accept in current

    def search_column(self, values: np.ndarray) -> np.ndarray:
        """:meth:`search` over every value of a char column, as a boolean
        mask.  Fixed-width char columns pad with NULs; numpy strips
        trailing NULs on access, matching the string's logical payload."""
        return np.fromiter((self.search(bytes(value)) for value in values),
                           dtype=bool, count=len(values))

    @property
    def num_states(self) -> int:
        return len(self._states)
