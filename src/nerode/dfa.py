"""Complete deterministic finite automata and their minimization.

Minimization runs Hopcroft partition refinement over the reachable part and
renumbers the quotient so that state i is reached by the i-th shortest
length-lex access word.  Two minimal DFAs for the same language are therefore
structurally equal, which makes isomorphism checks trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Alphabet, Word, bfs_closure
from .errors import InputError


@dataclass(frozen=True)
class Dfa:
    """Total DFA over a fixed alphabet; states are 0..n_states-1.

    rows[s][k] is the successor of state s on the k-th alphabet symbol.
    """

    alphabet: Alphabet
    n_states: int
    initial: int
    finals: frozenset[int]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n_states
        if n <= 0:
            raise InputError("a DFA needs at least one state")
        if not 0 <= self.initial < n:
            raise InputError(f"initial state {self.initial} out of range 0..{n - 1}")
        for q in self.finals:
            if not 0 <= q < n:
                raise InputError(f"final state {q} out of range 0..{n - 1}")
        if len(self.rows) != n:
            raise InputError(f"expected {n} transition rows, got {len(self.rows)}")
        k = len(self.alphabet)
        for s, row in enumerate(self.rows):
            if len(row) != k:
                raise InputError(f"state {s}: expected one target per symbol ({k}), got {len(row)}")
            for t in row:
                if not 0 <= t < n:
                    raise InputError(f"state {s}: target {t} out of range 0..{n - 1}")

    def step(self, state: int, symbol: str) -> int:
        return self.rows[state][self.alphabet.index(symbol)]

    # initial, accepting, successor: the surface morphism checks and DOT export read
    successor = step

    @property
    def accepting(self) -> frozenset[int]:
        return self.finals

    def run(self, word: Word, start: int | None = None) -> int:
        state = self.initial if start is None else start
        for ch in word:
            state = self.rows[state][self.alphabet.index(ch)]
        return state

    def accepts(self, word: Word) -> bool:
        return self.run(word) in self.finals


def access_words(d: Dfa) -> dict[int, Word]:
    """Shortest length-lex access word for every reachable state."""
    c = bfs_closure(d.initial, d.rows.__getitem__)
    return dict(zip(c.items, c.witnesses(d.alphabet.symbols)))


def canonical_form(d: Dfa) -> Dfa:
    """Drop unreachable states and renumber by shortest access word."""
    c = bfs_closure(d.initial, d.rows.__getitem__)
    finals = frozenset(i for i, s in enumerate(c.items) if s in d.finals)
    return Dfa(d.alphabet, len(c.items), 0, finals, tuple(c.rows))


def _nerode_partition(d: Dfa) -> list[int]:
    """Hopcroft refinement of an all-reachable DFA: the block id of each state.

    blocks[i] holds the states of block i.  Each splitter's preimage under a
    symbol is grouped by block, and only the blocks it touches are split.  A
    split gives the smaller half a new id, so queueing the new id keeps the
    smaller-half rule whether or not the old id is still queued.
    """
    n = d.n_states
    k = len(d.alphabet)
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(k)]
    for s, row in enumerate(d.rows):
        for a, t in enumerate(row):
            pre[a][t].append(s)

    blocks = [set(range(n))]
    block_of = [0] * n
    worklist: set[int] = set()

    def split(touched) -> None:
        for b, hit in touched.items():
            block = blocks[b]
            if len(hit) < len(block):
                new = set(hit) if 2 * len(hit) <= len(block) else block.difference(hit)
                block -= new
                for s in new:
                    block_of[s] = len(blocks)
                worklist.add(len(blocks))
                blocks.append(new)

    split({0: d.finals} if d.finals else {})
    while worklist:
        splitter = tuple(blocks[worklist.pop()])
        for a in range(k):
            touched: dict[int, list[int]] = {}
            for t in splitter:
                for s in pre[a][t]:
                    touched.setdefault(block_of[s], []).append(s)
            split(touched)
    return block_of


def minimize_dfa(d: Dfa) -> Dfa:
    """Minimal DFA of L(d), reachable states only, canonically numbered."""
    r = canonical_form(d)
    block_of = _nerode_partition(r)
    rep = {b: s for s, b in enumerate(block_of)}  # any state of a block stands for it
    # the quotient, numbered like canonical_form: blocks in BFS order
    c = bfs_closure(block_of[r.initial], lambda b: [block_of[t] for t in r.rows[rep[b]]])
    finals = frozenset(i for i, b in enumerate(c.items) if rep[b] in r.finals)
    return Dfa(r.alphabet, len(c.items), 0, finals, tuple(c.rows))


def dfa_isomorphic(a: Dfa, b: Dfa) -> bool:
    """Isomorphism of the reachable parts (exact for canonical minimal DFAs)."""
    return canonical_form(a) == canonical_form(b)


def language_mismatch(a: Dfa, b: Dfa) -> Word | None:
    """Shortest length-lex word accepted by exactly one of the two DFAs.

    Exact product-automaton check; returns None when L(a) = L(b).
    """
    if a.alphabet != b.alphabet:
        raise InputError("language comparison needs a common alphabet")
    c = bfs_closure((a.initial, b.initial), lambda st: zip(a.rows[st[0]], b.rows[st[1]]))
    for i, (s, t) in enumerate(c.items):
        if (s in a.finals) != (t in b.finals):
            return c.witnesses(a.alphabet.symbols)[i]
    return None


def is_strongly_connected(d: Dfa) -> bool:
    """True iff the transition graph is strongly connected.

    For a minimal DFA this is the criterion for the residual dynamical
    system of the language to be minimal (every orbit closure is the whole
    state space).  The caller is expected to minimize first.
    """
    n = d.n_states
    if len(bfs_closure(d.initial, d.rows.__getitem__).items) < n:
        return False
    back: list[list[int]] = [[] for _ in range(n)]
    for s, row in enumerate(d.rows):
        for t in row:
            back[t].append(s)
    return len(bfs_closure(d.initial, back.__getitem__).items) == n
