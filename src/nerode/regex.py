"""Minimal regular expression fragment: literals, concatenation, '|', '*', '()'.

Compilation goes through the position automaton (Glushkov 1961; McNaughton
& Yamada 1960).  The parser numbers the symbol occurrences of the pattern
from 1 and computes, for each subexpression, whether it is nullable and its
first and last positions; it records which positions may follow which.  A
set of positions is a DFA state: position 0 stands before the first symbol,
the start state is {0}, and the empty set is the dead state.  The subset
construction is then minimized, so compile_regex always returns the
canonical minimal DFA.

An empty pattern or an empty union branch denotes the empty word, e.g.
"(a|)" matches "a" and "".  There is no literal for the empty language.
"""

from __future__ import annotations

from .alphabet import Alphabet, bfs_closure
from .dfa import Dfa, minimize_dfa
from .errors import RegexParseError

# Deepest parenthesis nesting parse_pattern accepts.  Only the parser
# recurses, at three stack frames per level, so 100 levels stay well under
# Python's default recursion limit of 1000.
MAX_NESTING = 100


def parse_pattern(pattern: str, alphabet: Alphabet) -> tuple[list[int], list[set[int]], set[int]]:
    """The position automaton of the pattern: (symbol, follow, finals).

    symbol[p] is the alphabet index of position p >= 1, follow[p] the
    positions that may come right after p (follow[0] those that may come
    first), and finals the positions a match may end on, 0 if the pattern
    matches the empty word.
    """
    pos = 0
    depth = 0
    symbol = [-1]
    follow: list[set[int]] = [set()]

    def peek() -> str | None:
        return pattern[pos] if pos < len(pattern) else None

    # each parse_* returns (nullable, first positions, last positions)
    def parse_expr():
        nonlocal pos
        nullable, first, last = parse_term()
        while peek() == "|":
            pos += 1
            b_null, b_first, b_last = parse_term()
            nullable, first, last = nullable or b_null, first | b_first, last | b_last
        return nullable, first, last

    def parse_term():
        nullable, first, last = True, set(), set()
        while peek() not in (None, "|", ")"):
            f_null, f_first, f_last = parse_factor()
            for p in last:
                follow[p] |= f_first
            if nullable:
                first = first | f_first
            last = last | f_last if f_null else f_last
            nullable = nullable and f_null
        return nullable, first, last

    def parse_factor():
        nonlocal pos, depth
        c = peek()
        if c == "(":
            if depth == MAX_NESTING:
                raise RegexParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            depth += 1
            pos += 1
            nullable, first, last = parse_expr()
            if peek() != ")":
                raise RegexParseError("expected ')'", pos)
            pos += 1
            depth -= 1
        elif c == "*":
            raise RegexParseError("nothing to repeat", pos)
        elif c in alphabet:
            p = len(symbol)
            symbol.append(alphabet.index(c))
            follow.append(set())
            nullable, first, last = False, {p}, {p}
            pos += 1
        else:
            raise RegexParseError(f"symbol {c!r} not in alphabet", pos)
        while peek() == "*":
            pos += 1
            nullable = True
            for p in last:
                follow[p] |= first
        return nullable, first, last

    nullable, first, last = parse_expr()
    if peek() is not None:
        raise RegexParseError("unbalanced ')'", pos)
    follow[0] = first
    return symbol, follow, last | {0} if nullable else last


def compile_regex(pattern: str, alphabet: Alphabet) -> Dfa:
    """Minimal DFA of the pattern's language over the given alphabet."""
    symbol, follow, finals = parse_pattern(pattern, alphabet)

    def successors(state: frozenset[int]):
        out = [set() for _ in alphabet.symbols]
        for p in state:
            for q in follow[p]:
                out[symbol[q]].add(q)
        return map(frozenset, out)

    c = bfs_closure(frozenset({0}), successors)
    accepting = frozenset(i for i, s in enumerate(c.items) if not finals.isdisjoint(s))
    return minimize_dfa(Dfa(alphabet, len(c.items), 0, accepting, tuple(c.rows)))
