"""Reference computations made apart from the program.

Every function here is written from the definitions, not from nerode's
code: membership comes from Python's `re`, from the benchmark's own
deciders for the builtin oracles, or from running a DFA by hand; classes,
minimal automata and monoids come from brute-force enumeration, Moore
refinement and plain breadth-first closure.  They are slow, which is fine:
they run outside the timed region, and they keep memory small (no χ
tables), so that a run's peak RSS stays the program's.
"""

from __future__ import annotations

import re
from collections import deque


class CheckFailed(Exception):
    """A job's output disagrees with the reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------- words


def words(symbols: str, max_len: int):
    """All words of length <= max_len, length-lex in the order of `symbols`."""
    level = [""]
    yield ""
    for _ in range(max_len):
        nxt = []
        for w in level:
            for ch in symbols:
                u = w + ch
                yield u
                nxt.append(u)
        level = nxt


def word_count(k: int, max_len: int) -> int:
    return max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)


# ---------------------------------------------------------------- languages


def champernowne_bits(n: int) -> str:
    """First n bits of 0 1 00 01 10 11 000 ... (binary words, length-lex)."""
    out = []
    size = 0
    length = 1
    while size < n:
        for v in range(1 << length):
            w = format(v, f"0{length}b")
            out.append(w)
            size += length
            if size >= n:
                break
        length += 1
    return "".join(out)[:n]


class Lang:
    """A language the benchmark can decide on its own.

    kind is "regex" (pattern text), "builtin" (name) or "dfa" (a RefDfa);
    `text` is the spec-file text handed to the program.  `member(w)` is 1
    for members and 0 otherwise.
    """

    def __init__(self, kind: str, symbols: str, payload, text: str):
        self.kind = kind
        self.symbols = symbols
        self.payload = payload
        self.text = text
        if kind == "regex":
            fullmatch = re.compile(payload).fullmatch
            self.member = lambda w: 1 if fullmatch(w) else 0
        elif kind == "dfa":
            self.member = lambda w: int(payload.run(w) in payload.finals)
        else:
            self.member = getattr(self, "_" + payload)

    @staticmethod
    def _anbn(w: str) -> int:
        h, odd = divmod(len(w), 2)
        return int(not odd and w == "a" * h + "b" * h)

    @staticmethod
    def _dyck1(w: str) -> int:
        depth = 0
        for ch in w:
            if ch == "a":
                depth += 1
            elif ch == "b" and depth > 0:
                depth -= 1
            else:
                return 0
        return int(depth == 0)

    @staticmethod
    def _even_length(w: str) -> int:
        return int(len(w) % 2 == 0)

    @staticmethod
    def _unary_powers_of_two(w: str) -> int:
        n = len(w)
        return int(n >= 1 and n & (n - 1) == 0)

    def _champernowne_unary(self, w: str) -> int:
        n = len(w)
        if n >= len(getattr(self, "_champ", "")):
            self._champ = champernowne_bits(2 * n + 64)
        return int(self._champ[n])

    def unary_bits(self, n: int) -> str:
        """Characteristic sequence of a unary language, first n bits."""
        if self.kind == "builtin" and self.payload == "champernowne_unary":
            return champernowne_bits(n)
        ch = self.symbols
        return "".join(str(self.member(ch * i)) for i in range(n))


# ---------------------------------------------------------------- DFAs


class RefDfa:
    """Plain DFA: rows[s][k] is the successor of s on symbols[k]."""

    def __init__(self, symbols: str, initial: int, finals, rows):
        self.symbols = symbols
        self.initial = initial
        self.finals = frozenset(finals)
        self.rows = [tuple(r) for r in rows]
        self._col = {ch: k for k, ch in enumerate(symbols)}

    @property
    def n(self) -> int:
        return len(self.rows)

    def run(self, w: str, start: int | None = None) -> int:
        s = self.initial if start is None else start
        col = self._col
        for ch in w:
            s = self.rows[s][col[ch]]
        return s

    def generators(self) -> list[tuple[int, ...]]:
        return [tuple(self.rows[s][k] for s in range(self.n)) for k in range(len(self.symbols))]


def dfa_of_program(d) -> RefDfa:
    return RefDfa("".join(d.alphabet.symbols), d.initial, d.finals, d.rows)


def dfa_of_json(p: dict) -> RefDfa:
    symbols = p["alphabet"]
    rows = [tuple(p["transitions"][str(s)][ch] for ch in symbols) for s in range(p["states"])]
    return RefDfa(symbols, p["initial"], p["finals"], rows)


def bfs_order(d: RefDfa) -> list[int]:
    order = [d.initial]
    seen = {d.initial}
    i = 0
    while i < len(order):
        for t in d.rows[order[i]]:
            if t not in seen:
                seen.add(t)
                order.append(t)
        i += 1
    return order


def moore_classes(d: RefDfa, states: list[int]) -> dict[int, int]:
    """Moore refinement over `states` (closed under transitions)."""
    cls = {s: int(s in d.finals) for s in states}
    count = len(set(cls.values()))
    while True:
        sig = {s: (cls[s],) + tuple(cls[t] for t in d.rows[s]) for s in states}
        ids: dict[tuple, int] = {}
        new = {s: ids.setdefault(sig[s], len(ids)) for s in states}
        if len(ids) == count:
            return new
        cls, count = new, len(ids)


def canonical_minimal(d: RefDfa) -> RefDfa:
    """Minimal DFA of L(d), states numbered in BFS (length-lex) order."""
    reach = bfs_order(d)
    cls = moore_classes(d, reach)
    rep: dict[int, int] = {}
    for s in reach:
        rep.setdefault(cls[s], s)
    quotient = RefDfa(
        d.symbols,
        cls[d.initial],
        {cls[s] for s in reach if s in d.finals},
        [tuple(cls[t] for t in d.rows[rep[c]]) for c in range(len(rep))],
    )
    order = bfs_order(quotient)
    renum = {old: new for new, old in enumerate(order)}
    return RefDfa(
        d.symbols,
        0,
        {renum[q] for q in quotient.finals},
        [tuple(renum[t] for t in quotient.rows[old]) for old in order],
    )


def access_words(d: RefDfa) -> dict[int, str]:
    acc = {d.initial: ""}
    queue = deque([d.initial])
    while queue:
        s = queue.popleft()
        for k, t in enumerate(d.rows[s]):
            if t not in acc:
                acc[t] = acc[s] + d.symbols[k]
                queue.append(t)
    return acc


def equivalent_from(a: RefDfa, s: int, b: RefDfa, t: int) -> bool:
    """Product search: do a from s and b from t accept the same words?"""
    seen = {(s, t)}
    queue = deque([(s, t)])
    while queue:
        p, q = queue.popleft()
        if (p in a.finals) != (q in b.finals):
            return False
        for k in range(len(a.symbols)):
            nxt = (a.rows[p][k], b.rows[q][k])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def same_dfa(d: RefDfa, e: RefDfa) -> bool:
    return (
        d.symbols == e.symbols
        and d.initial == e.initial
        and d.finals == e.finals
        and d.rows == e.rows
    )


# ---------------------------------------------------------------- monoids


def closure(n: int, gens: list[tuple[int, ...]], symbols: str):
    """Length-lex BFS closure of the generators (one per symbol):
    (elements, witness words), the identity first."""
    ident = tuple(range(n))
    elements = [ident]
    witnesses = [""]
    index = {ident: 0}
    i = 0
    while i < len(elements):
        f = elements[i]
        for ch, g in zip(symbols, gens):
            h = tuple(g[x] for x in f)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
                witnesses.append(witnesses[i] + ch)
        i += 1
    return elements, witnesses


def check_monoid(elements, witnesses, table, generators: dict, d: RefDfa, rng, samples: int):
    """The program's monoid against the reference closure over d's letters.

    Elements and witnesses must match the closure exactly (both are the
    length-lex BFS order); the table is checked on every generator column
    and on seeded samples of cells and of associativity.
    """
    gens = d.generators()
    ref_elements, ref_witnesses = closure(d.n, gens, d.symbols)
    expect(len(elements) == len(ref_elements), f"order {len(elements)} != {len(ref_elements)}")
    expect([tuple(e) for e in elements] == ref_elements, "element order differs from the closure")
    expect(list(witnesses) == ref_witnesses, "witnesses are not the length-lex ones")
    index = {e: i for i, e in enumerate(ref_elements)}
    n = len(ref_elements)
    for ch, g in zip(d.symbols, gens):
        gi = generators[ch]
        expect(ref_elements[gi] == g, f"generator {ch} points at a wrong element")
        for i in range(n):
            f = ref_elements[i]
            expect(table[i][gi] == index[tuple(g[x] for x in f)], f"generator column {ch} row {i}")
    for _ in range(samples):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        f, g = ref_elements[i], ref_elements[j]
        expect(table[i][j] == index[tuple(g[x] for x in f)], f"table cell {i},{j}")
        expect(table[table[i][j]][k] == table[i][table[j][k]], f"associativity {i},{j},{k}")
    return ref_elements


def action(d: RefDfa, w: str) -> tuple[int, ...]:
    return tuple(d.run(w, s) for s in range(d.n))


def recognition_violations(d: RefDfa, elements, finals, lang: Lang, bound: int) -> list[str]:
    """Words of length <= bound whose image under d's monoid lies in
    `finals` exactly when the word is not a member, length-lex."""
    index = {tuple(e): i for i, e in enumerate(elements)}
    gens = d.generators()
    out = []
    level = [("", tuple(range(d.n)))]
    if (index[level[0][1]] in finals) != bool(lang.member("")):
        out.append("")
    for _ in range(bound):
        nxt = []
        for w, f in level:
            for ch, g in zip(d.symbols, gens):
                u, h = w + ch, tuple(g[x] for x in f)
                if (index[h] in finals) != bool(lang.member(u)):
                    out.append(u)
                nxt.append((u, h))
        level = nxt
    return out


# ---------------------------------------------------------------- residuals


def point_maker(lang: Lang, d: int):
    """Memoised depth-d residual bits of a word, as a string of 0/1."""
    suffixes = list(words(lang.symbols, d))
    member = lang.member
    memo: dict[str, str] = {}

    def point(w: str) -> str:
        p = memo.get(w)
        if p is None:
            p = memo[w] = "".join([str(member(w + u)) for u in suffixes])
        return p

    return point


def residual_classes(lang: Lang, d: int, horizon: int, point=None):
    """Bounded Nerode quotient by brute force.

    Returns (bits strings, witnesses, transitions) with classes in
    length-lex order of their first witness; transitions are (target or
    None, consistent) as the method defines them.  `point` may be a
    point_maker of a larger depth, whose bits are cut down to depth d.
    """
    symbols = lang.symbols
    width = word_count(len(symbols), d)
    deeper = point or point_maker(lang, d)

    def point_at(w: str) -> str:
        return deeper(w)[:width]

    class_of: dict[str, int] = {}
    bits: list[str] = []
    witnesses: list[str] = []
    members: list[list[str]] = []
    word_class: dict[str, int] = {}
    for w in words(symbols, horizon):
        p = point_at(w)
        ci = class_of.get(p)
        if ci is None:
            ci = class_of[p] = len(bits)
            bits.append(p)
            witnesses.append(w)
            members.append([])
        members[ci].append(w)
        word_class[w] = ci
    transitions = []
    for ci, w in enumerate(witnesses):
        row = []
        for ch in symbols:
            target = word_class.get(w + ch)
            if target is None:
                target = class_of.get(point_at(w + ch))
            ok = target is not None and all(
                word_class.get(u + ch, target) == target for u in members[ci]
            )
            row.append((target, ok))
        transitions.append(row)
    return bits, witnesses, transitions


def closure_patterns(lang: Lang, d: int, horizon: int) -> set:
    point = point_maker(lang, d)
    stats: dict[str, list[int]] = {}
    for w in words(lang.symbols, horizon):
        p = point(w)
        e = stats.get(p)
        if e is None:
            stats[p] = [len(w), len(w), 1]
        else:
            e[1] = len(w)
            e[2] += 1
    return {(p, f, l, c, 2 * l > horizon) for p, (f, l, c) in stats.items()}


def context_partitions(lang: Lang, kmax: int, bound: int, left: int | None = None):
    """[(representatives, sizes)] for context bounds (k, k), k = 1..kmax, or
    for (left, kmax) alone when `left` is given: words of length <= bound
    bucketed by which contexts (x, y) put them in the language."""
    m = kmax if left is None else left
    xs = list(words(lang.symbols, m))
    ys = list(words(lang.symbols, kmax))
    member = lang.member
    ks = range(1, kmax + 1) if left is None else [None]
    cuts = {k: (word_count(len(lang.symbols), k) if k else len(xs),
                word_count(len(lang.symbols), k) if k else len(ys)) for k in ks}
    by_sig = {k: {} for k in ks}
    out = {k: ([], []) for k in ks}
    for u in words(lang.symbols, bound):
        rows = [[member(x + u + y) for y in ys] for x in xs]
        for k in ks:
            nx, ny = cuts[k]
            sig = tuple(v for row in rows[:nx] for v in row[:ny])
            ci = by_sig[k].get(sig)
            reps, sizes = out[k]
            if ci is None:
                ci = by_sig[k][sig] = len(reps)
                reps.append(u)
                sizes.append(0)
            sizes[ci] += 1
    return [out[k] for k in ks]


def context_partition(lang: Lang, m: int, n: int, bound: int):
    return context_partitions(lang, n, bound, left=m)[0]


def missing_patterns(bits: str, k: int) -> list[str]:
    seen = {bits[i:i + k] for i in range(len(bits) - k + 1)}
    return [p for p in (format(v, f"0{k}b") for v in range(1 << k)) if p not in seen]


def window_count(bits: str, d: int, horizon: int) -> int:
    return len({bits[m:m + d + 1] for m in range(horizon + 1)})
