"""Finite alphabets and length-lexicographic word enumeration.

Words are plain Python strings; the alphabet fixes which single-character
symbols are allowed and, crucially, their order.  Every enumeration in the
workbench is length-lexicographic with ties broken by *alphabet* order (not
ASCII order), so all outputs are reproducible bit for bit.

The order is bijective base-k numeration (rank, inverted by unrank), so a
table of one entry per word is a flat sequence indexed by rank, and a word
is built from its rank only where output prints it.  residual_slices says
where the extensions w·u of a word sit in such a table.  walk_states yields
the state each rank leads to, and bfs_closure finds everything a start item
reaches, with shortest length-lex witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import InputError

Word = str
T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InputError("alphabet must contain at least one symbol")
        for ch in self.symbols:
            if len(ch) != 1:
                raise InputError(f"alphabet symbols are single characters, got {ch!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"duplicate symbols in alphabet {''.join(self.symbols)!r}")

    @classmethod
    def of(cls, symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, ch: object) -> bool:
        return ch in self.symbols

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def index(self, ch: str) -> int:
        try:
            return self.symbols.index(ch)
        except ValueError:
            raise InputError(f"symbol {ch!r} not in alphabet {''.join(self.symbols)!r}") from None

    def validate_word(self, w: Word) -> None:
        for ch in w:
            if ch not in self.symbols:
                raise InputError(
                    f"symbol {ch!r} in word {w!r} not in alphabet {''.join(self.symbols)!r}"
                )

    def words(self, max_len: int) -> Iterator[Word]:
        """All words of length <= max_len in length-lex order."""
        if max_len < 0:
            raise InputError("word length bound must be non-negative")
        yield ""
        level = [""]
        for _ in range(max_len - 1):
            level = [w + ch for w in level for ch in self.symbols]
            yield from level
        if max_len:  # the last level is yielded, never stored
            yield from (w + ch for w in level for ch in self.symbols)

    def word_count(self, max_len: int) -> int:
        """Number of words of length <= max_len."""
        k = len(self.symbols)
        if k == 1:
            return max_len + 1
        return (k ** (max_len + 1) - 1) // (k - 1)

    def rank(self, w: Word) -> int:
        """Position of w in the length-lex order of words(): bijective
        base-k numeration with digits 1..k in alphabet order."""
        k = len(self.symbols)
        r = 0
        for ch in w:
            r = r * k + self.index(ch) + 1
        return r

    def unrank(self, r: int) -> Word:
        """The word of rank r: the inverse of rank."""
        if r < 0:
            raise InputError("word rank must be non-negative")
        if len(self.symbols) == 1:  # unary: rank is length
            return self.symbols[0] * r
        out = []
        while r:
            r, digit = divmod(r - 1, len(self.symbols))
            out.append(self.symbols[digit])
        return "".join(reversed(out))

    def residual_slices(self, r: int, depth: int) -> list[slice]:
        """Where the words w·u with |u| <= depth sit in length-lex order, w
        the word of rank r: one slice per length n of u, in the order of u
        in words(depth), since rank(w·u) = rank(w)·k^n + rank(u)."""
        k = len(self.symbols)
        out, first, size = [], 0, 1  # the words u of length n: ranks first..first+size-1
        for _ in range(depth + 1):
            start = r * size + first
            out.append(slice(start, start + size))
            first += size
            size *= k
        return out


def walk_states(start: int, rows: Sequence[Sequence[int]], max_len: int) -> Iterator[int]:
    """States reached from start by every word of length <= max_len, in
    length-lex order: the n-th state yielded is the one the word of rank n
    leads to, one table step per word.  rows[s][k] is the successor of
    state s on the k-th symbol.
    """
    yield start
    level = [start]
    for _ in range(max_len):
        level = [t for s in level for t in rows[s]]
        yield from level


@dataclass
class Closure:
    """Breadth-first closure of a start item under a successor function.

    items are in discovery order (items[0] is the start); rows[i][k] is the
    index of the k-th successor of items[i]; tree[i - 1] = (parent, k)
    records how items[i] was first reached, so the path to it is its
    shortest length-lex witness when successors follow alphabet order.
    """

    items: list
    index: dict
    rows: list[tuple[int, ...]]
    tree: list[tuple[int, int]]

    def witnesses(self, symbols: Sequence[str]) -> list[Word]:
        """Shortest length-lex word to every item, symbols[k] labelling the
        k-th successor."""
        out = [""]
        for parent, k in self.tree:
            out.append(out[parent] + symbols[k])
        return out


def bfs_closure(
    start: T,
    successors: Callable[[T], Iterable[T]],
    admit: Callable[[int], None] | None = None,
) -> Closure:
    """Every item reachable from start, breadth first.

    admit, when given, is called with the current item count before each
    new item joins, and may raise to stop a closure that grows too large.
    """
    items = [start]
    index = {start: 0}
    rows = []
    tree = []
    for i, item in enumerate(items):  # items grows while it is walked
        row = []
        for k, t in enumerate(successors(item)):
            j = index.get(t)
            if j is None:
                if admit is not None:
                    admit(len(items))
                j = index[t] = len(items)
                items.append(t)
                tree.append((i, k))
            row.append(j)
        rows.append(tuple(row))
    return Closure(items, index, rows, tree)
