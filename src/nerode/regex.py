"""Minimal regular expression fragment: literals, concatenation, '|', '*', '()'.

Compilation goes through the position automaton (Glushkov 1961; McNaughton
& Yamada 1960).  The parser numbers the symbol occurrences of the pattern
from 1 and computes, for each subexpression, whether it is nullable and its
first and last positions; it records which positions may follow which.  A
set of positions is a DFA state: position 0 stands before the first symbol,
the start state is {0}, and the empty set is the dead state.  The subset
construction numbers its states breadth first, as canonical_form would, so
it goes straight to partition refinement and compile_regex always returns
the canonical minimal DFA.

An empty pattern or an empty union branch denotes the empty word, e.g.
"(a|)" matches "a" and "".  There is no literal for the empty language.
"""

from __future__ import annotations

from .alphabet import Alphabet, bfs_closure
from .dfa import Dfa, minimal_quotient
from .errors import RegexParseError

# Deepest parenthesis nesting parse_pattern accepts.  The parser keeps open
# groups on a list, not on the call stack, so it could take any depth; the
# limit is part of the documented pattern language (README), and a deeper
# pattern is an input error like any other malformed one.
MAX_NESTING = 100


def _concat(follow: list[set[int]], left: tuple, right: tuple) -> tuple:
    """(nullable, first, last) of left·right, recording that right's first
    positions may follow left's last ones."""
    l_null, l_first, l_last = left
    r_null, r_first, r_last = right
    for p in l_last:
        follow[p] |= r_first
    return (
        l_null and r_null,
        l_first | r_first if l_null else l_first,
        l_last | r_last if r_null else r_last,
    )


def _union(left: tuple, right: tuple) -> tuple:
    return left[0] or right[0], left[1] | right[1], left[2] | right[2]


def parse_pattern(pattern: str, alphabet: Alphabet) -> tuple[list[int], list[set[int]], set[int]]:
    """The position automaton of the pattern: (symbol, follow, finals).

    symbol[p] is the alphabet index of position p >= 1, follow[p] the
    positions that may come right after p (follow[0] those that may come
    first), and finals the positions a match may end on, 0 if the pattern
    matches the empty word.

    One pass from left to right.  Every subexpression is summarised as
    (nullable, first, last).  A factor is held apart until the next
    character shows that no '*' follows it, and is then appended to its
    branch; '|' adds the branch to its group's union; '(' saves the
    enclosing group on a stack and ')' restores it, the closed group
    becoming the pending factor.
    """
    index = {c: i for i, c in enumerate(alphabet.symbols)}
    symbol = [-1]
    follow: list[set[int]] = [set()]
    groups: list[tuple] = []  # (union, branch) of each enclosing group
    union = (False, set(), set())  # the finished branches of the innermost group: none yet
    branch = (True, set(), set())  # the branch being read, less its pending factor
    factor = None  # the branch's last factor, which a '*' may still repeat
    for pos, c in enumerate(pattern):
        if c == "*":
            if factor is None:
                raise RegexParseError("nothing to repeat", pos)
            _, first, last = factor
            for p in last:
                follow[p] |= first
            factor = (True, first, last)
            continue
        if factor is not None:
            branch = _concat(follow, branch, factor)
            factor = None
        if c == "|":
            union = _union(union, branch)
            branch = (True, set(), set())
        elif c == ")":
            if not groups:
                raise RegexParseError("unbalanced ')'", pos)
            factor = _union(union, branch)
            union, branch = groups.pop()
        elif c == "(":
            if len(groups) == MAX_NESTING:
                raise RegexParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            groups.append((union, branch))
            union = (False, set(), set())
            branch = (True, set(), set())
        elif c in index:
            p = len(symbol)
            symbol.append(index[c])
            follow.append(set())
            factor = (False, {p}, {p})
        else:
            raise RegexParseError(f"symbol {c!r} not in alphabet", pos)
    if groups:
        raise RegexParseError("expected ')'", len(pattern))
    if factor is not None:
        branch = _concat(follow, branch, factor)
    nullable, first, last = _union(union, branch)
    follow[0] = first
    return symbol, follow, last | {0} if nullable else last


def compile_regex(pattern: str, alphabet: Alphabet) -> Dfa:
    """Minimal DFA of the pattern's language over the given alphabet."""
    symbol, follow, finals = parse_pattern(pattern, alphabet)
    # A set of positions is held as a bit mask: bit p for position p.
    after = [sum(1 << q for q in f) for f in follow]
    on = [0] * len(alphabet)  # the positions of each symbol
    for p in range(1, len(symbol)):
        on[symbol[p]] |= 1 << p

    def successors(state: int) -> list[int]:
        reach = 0  # every position that may follow one of the state's
        while state:
            low = state & -state
            reach |= after[low.bit_length() - 1]
            state ^= low
        return [reach & m for m in on]

    # bfs_closure numbers the reachable subsets as canonical_form numbers states
    c = bfs_closure(1, successors)
    end = sum(1 << p for p in finals)
    return minimal_quotient(alphabet, c.rows, {i for i, s in enumerate(c.items) if s & end})[0]
