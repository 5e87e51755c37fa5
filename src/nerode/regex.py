"""Minimal regular expression fragment: literals, concatenation, '|', '*', '()'.

Compilation goes through Brzozowski derivatives: states of the DFA are
derivative expressions kept in a normal form (unions as sets of branches
without the empty language; flattened concatenations), which guarantees
finitely many dissimilar derivatives.  The result is then minimized, so
compile_regex always returns the canonical minimal DFA.

An empty pattern or an empty union branch denotes the empty word, e.g.
"(a|)" matches "a" and "".  There is no literal for the empty language.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Alphabet, bfs_closure
from .dfa import Dfa, minimize_dfa
from .errors import RegexParseError


class Rex:
    __slots__ = ()


@dataclass(frozen=True)
class Empty(Rex):
    pass


@dataclass(frozen=True)
class Eps(Rex):
    pass


@dataclass(frozen=True)
class Sym(Rex):
    ch: str


@dataclass(frozen=True)
class Cat(Rex):
    parts: tuple[Rex, ...]


@dataclass(frozen=True)
class Alt(Rex):
    parts: frozenset[Rex]


@dataclass(frozen=True)
class Star(Rex):
    inner: Rex


EMPTY = Empty()
EPS = Eps()


def cat(*rs: Rex) -> Rex:
    parts: list[Rex] = []
    for r in rs:
        if isinstance(r, Empty):
            return EMPTY
        if isinstance(r, Eps):
            continue
        if isinstance(r, Cat):
            parts.extend(r.parts)
        else:
            parts.append(r)
    if not parts:
        return EPS
    if len(parts) == 1:
        return parts[0]
    return Cat(tuple(parts))


def alt(*rs: Rex) -> Rex:
    parts = frozenset().union(*(r.parts if isinstance(r, Alt) else (r,) for r in rs))
    parts -= {EMPTY}
    if not parts:
        return EMPTY
    if len(parts) == 1:
        return next(iter(parts))
    return Alt(parts)


def star(r: Rex) -> Rex:
    if isinstance(r, (Empty, Eps)):
        return EPS
    if isinstance(r, Star):
        return r
    return Star(r)


def nullable(r: Rex) -> bool:
    if isinstance(r, (Eps, Star)):
        return True
    if isinstance(r, (Empty, Sym)):
        return False
    if isinstance(r, Cat):
        return all(nullable(p) for p in r.parts)
    return any(nullable(p) for p in r.parts)


def deriv(r: Rex, a: str) -> Rex:
    """Brzozowski derivative: the language of words w with aw in L(r)."""
    if isinstance(r, (Empty, Eps)):
        return EMPTY
    if isinstance(r, Sym):
        return EPS if r.ch == a else EMPTY
    if isinstance(r, Alt):
        return alt(*(deriv(p, a) for p in r.parts))
    if isinstance(r, Star):
        return cat(deriv(r.inner, a), r)
    head, rest = r.parts[0], r.parts[1:]
    d = cat(deriv(head, a), *rest)
    if nullable(head):
        return alt(d, deriv(cat(*rest), a))
    return d


# Deepest parenthesis nesting parse_pattern accepts.  Each level costs the
# recursive parser three stack frames and deriv, nullable and the node hashes
# up to six, so 100 levels keep them all well under Python's default
# recursion limit of 1000.
MAX_NESTING = 100


def parse_pattern(pattern: str, alphabet: Alphabet) -> Rex:
    pos = 0
    depth = 0

    def peek() -> str | None:
        return pattern[pos] if pos < len(pattern) else None

    def parse_expr() -> Rex:
        nonlocal pos
        branches = [parse_term()]
        while peek() == "|":
            pos += 1
            branches.append(parse_term())
        return alt(*branches)

    def parse_term() -> Rex:
        parts = []
        while peek() not in (None, "|", ")"):
            parts.append(parse_factor())
        return cat(*parts)

    def parse_factor() -> Rex:
        nonlocal pos, depth
        c = peek()
        if c == "(":
            if depth == MAX_NESTING:
                raise RegexParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            depth += 1
            pos += 1
            node = parse_expr()
            if peek() != ")":
                raise RegexParseError("expected ')'", pos)
            pos += 1
            depth -= 1
        elif c == "*":
            raise RegexParseError("nothing to repeat", pos)
        elif c in alphabet:
            node = Sym(c)
            pos += 1
        else:
            raise RegexParseError(f"symbol {c!r} not in alphabet", pos)
        while peek() == "*":
            pos += 1
            node = star(node)
        return node

    r = parse_expr()
    if peek() is not None:
        raise RegexParseError("unbalanced ')'", pos)
    return r


def compile_regex(pattern: str, alphabet: Alphabet) -> Dfa:
    """Minimal DFA of the pattern's language over the given alphabet."""
    root = parse_pattern(pattern, alphabet)
    c = bfs_closure(root, lambda r: [deriv(r, ch) for ch in alphabet.symbols])
    finals = frozenset(i for i, r in enumerate(c.items) if nullable(r))
    return minimize_dfa(Dfa(alphabet, len(c.items), 0, finals, tuple(c.rows)))
