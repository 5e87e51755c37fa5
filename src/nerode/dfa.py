"""Complete deterministic finite automata and their minimization.

Minimization runs Hopcroft partition refinement over the reachable part and
renumbers the quotient so that state i is reached by the i-th shortest
length-lex access word.  Two minimal DFAs for the same language are therefore
structurally equal, which makes isomorphism checks trivial.

Every language comparison, here and in recognition, is product_mismatches.
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

    def run(self, word: Word) -> int:
        state = self.initial
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


def _nerode_partition(rows, finals, k: int) -> list[int]:
    """Hopcroft refinement of an all-reachable DFA: the block id of each state.

    blocks[i] holds the states of block i.  Each splitter's preimage under a
    symbol is grouped by block, and only the blocks it touches are split.  A
    split gives the smaller half a new id, so queueing the new id keeps the
    smaller-half rule whether or not the old id is still queued.
    """
    n = len(rows)
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(k)]
    for s, row in enumerate(rows):
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

    split({0: finals} if finals else {})
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
    return minimal_quotient(r.alphabet, r.rows, r.finals)[0]


def minimal_quotient(alphabet: Alphabet, rows, finals) -> tuple[Dfa, list[int]]:
    """Minimal DFA of a canonically numbered DFA, and each state's class in it.

    rows[s] and finals describe the DFA; every state is reachable and state
    s is reached by the s-th shortest length-lex access word, state 0 being
    initial.  The quotient is then numbered canonically by listing its
    blocks in order of their first state: a block's shortest access word
    is that of its first state.
    """
    block_of = _nerode_partition(rows, finals, len(alphabet))
    number: dict[int, int] = {}
    first: list[int] = []  # the first state of each block, in quotient order
    for s, b in enumerate(block_of):
        if b not in number:
            number[b] = len(first)
            first.append(s)
    classes = [number[b] for b in block_of]
    quotient = tuple(tuple(classes[t] for t in rows[s]) for s in first)
    accepting = frozenset(i for i, s in enumerate(first) if s in finals)
    return Dfa(alphabet, len(first), 0, accepting, quotient), classes


def dfa_isomorphic(a: Dfa, b: Dfa) -> bool:
    """Isomorphism of the reachable parts (exact for canonical minimal DFAs)."""
    return canonical_form(a) == canonical_form(b)


def product_mismatches(table, cols, initial: int, finals, d: Dfa, bound: int, first_only: bool = False):
    """(rank, state) of each word of length <= bound that one automaton and
    d disagree on, in rank order; state is where the first automaton stops.

    The first automaton is read in place: table[s][cols[a]] is the successor
    of s on d's a-th symbol, and finals are its accepting states.  Pairs
    (s, q), held as s * n + q, are found breadth first from (initial,
    d.initial) up to depth bound; succ[i * k + a] is the successor of pair i
    on the a-th symbol.  A pair is bad when its states disagree on
    acceptance.  Discovery order is the length-lex order of access words,
    so the first bad pair found gives the first mismatch, and first_only
    stops there with the rank each pair keeps: a pair first reached as
    succ[i * k + a] gets ranks[i] * k + a + 1.  Otherwise distances to a
    bad pair, by one reverse BFS, prune a level walk of (rank, pair), which
    ranks the words that still reach a bad pair within the bound.  With no
    reachable bad pair, any bound costs one product BFS.
    """
    n, rows, accepting, k = d.n_states, d.rows, d.finals, len(cols)
    start = initial * n + d.initial
    pairs, index, succ, ranks, bad = [start], {start: 0}, [], [0], []
    for depth in range(bound + 1):
        level = pairs[len(bad):]
        if not level:
            break
        flags = [(c // n in finals) != (c % n in accepting) for c in level]
        if first_only and True in flags:
            i = len(bad) + flags.index(True)
            return [(ranks[i], pairs[i] // n)]
        bad += flags
        if depth == bound:
            break
        for c in level:
            s, q = divmod(c, n)
            trow = table[s]
            for g, t in zip(cols, rows[q]):
                t += trow[g] * n
                j = index.get(t)
                if j is None:
                    j = index[t] = len(pairs)
                    pairs.append(t)
                    if first_only:  # the level walk ranks the full listing
                        ranks.append(ranks[len(succ) // k] * k + len(succ) % k + 1)
                succ.append(j)
    frontier = [i for i, b in enumerate(bad) if b]
    if not frontier:
        return []

    preds = [[] for _ in pairs]
    for x, j in enumerate(succ):
        preds[j].append(x // k)
    dist = [bound + 1] * len(pairs)  # bound + 1: no bad pair within the bound
    for i in frontier:
        dist[i] = 0
    for steps in range(1, bound + 1):
        nxt = []
        for j in frontier:
            for i in preds[j]:
                if dist[i] > steps:
                    dist[i] = steps
                    nxt.append(i)
        frontier = nxt

    out = []
    level = [(0, 0)] if dist[0] <= bound else []
    for length in range(bound + 1):
        out += [(r, pairs[i] // n) for r, i in level if bad[i]]
        if length == bound:
            break
        budget = bound - length - 1  # steps left after the next letter
        level = [
            (r * k + a, j)
            for r, i in level
            for a, j in enumerate(succ[i * k:i * k + k], 1)
            if dist[j] <= budget
        ]
    return out


def language_mismatch(a: Dfa, b: Dfa) -> Word | None:
    """Shortest length-lex word accepted by exactly one of the two DFAs.

    Exact product-automaton check; returns None when L(a) = L(b).  A
    shortest mismatch is a simple path in the product, so the bound
    a.n_states * b.n_states loses none.
    """
    if a.alphabet != b.alphabet:
        raise InputError("language comparison needs a common alphabet")
    cols = range(len(a.alphabet))
    found = product_mismatches(a.rows, cols, a.initial, a.finals, b, a.n_states * b.n_states, True)
    return a.alphabet.unrank(found[0][0]) if found else None


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
