"""Independent brute-force implementations used as test oracles.

Everything here recomputes expected values from first principles (itertools
enumeration, set algebra, product searches) without touching the library's
regex compiler, Hopcroft refinement, BFS monoid closure, or the chi
tables, so a bug in those code paths cannot cancel out.
"""

from itertools import product

from nerode import Alphabet, Dfa, DfaSpec, LanguageSpec, canonical_form
from nerode.errors import RegexParseError
from nerode.regex import MAX_NESTING


def all_words(symbols, max_len):
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in product(symbols, repeat=length))
    return out


def regex_words(pattern, symbols, max_len):
    """Words of length <= max_len matching the pattern, by direct set algebra.

    Own tiny parser: union '|', postfix '*', parentheses, juxtaposition.
    An empty pattern or branch denotes the empty word.
    """
    pos = 0

    def star_close(s):
        out = {""}
        frontier = {""}
        body = {w for w in s if w}
        while frontier:
            new = {u + v for u in frontier for v in body if len(u + v) <= max_len} - out
            out |= new
            frontier = new
        return out

    def factor():
        nonlocal pos
        c = pattern[pos]
        if c == "(":
            pos += 1
            s = expr()
            assert pos < len(pattern) and pattern[pos] == ")", pattern
            pos += 1
        else:
            assert c in symbols, (pattern, c)
            s = {c}
            pos += 1
        while pos < len(pattern) and pattern[pos] == "*":
            pos += 1
            s = star_close(s)
        return s

    def term():
        nonlocal pos
        out = {""}
        while pos < len(pattern) and pattern[pos] not in "|)":
            f = factor()
            out = {u + v for u in out for v in f if len(u + v) <= max_len}
        return out

    def expr():
        nonlocal pos
        out = term()
        while pos < len(pattern) and pattern[pos] == "|":
            pos += 1
            out |= term()
        return out

    result = expr()
    assert pos == len(pattern), pattern
    return result


def reference_parse_pattern(pattern, alphabet):
    """The position automaton (symbol, follow, finals) by recursive descent,
    one function per grammar rule, with the same RegexParseError messages
    and positions as nerode.regex.parse_pattern."""
    pos = 0
    depth = 0
    symbol = [-1]
    follow = [set()]

    def peek():
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
        elif c in alphabet.symbols:
            p = len(symbol)
            symbol.append(alphabet.symbols.index(c))
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


def dfa_words(d, max_len):
    """Accepted words of length <= max_len by direct transition folding."""
    out = set()
    for w in all_words(d.alphabet.symbols, max_len):
        s = d.initial
        for ch in w:
            s = d.rows[s][d.alphabet.symbols.index(ch)]
        if s in d.finals:
            out.add(w)
    return out


def brute_recognition_violations(monoid, gen_images, finals, member, symbols, max_len):
    """(kind, witness, detail) for every word of length <= max_len whose
    element, folded from the identity through monoid.table with letter ch
    read as gen_images[ch], lies in finals exactly when member(word) is
    false; length-lex, with the library's detail text."""
    out = []
    for w in all_words(symbols, max_len):
        e = 0
        for ch in w:
            e = monoid.table[e][gen_images[ch]]
        in_f = e in finals
        if in_f != bool(member(w)):
            side = "in F but not in the language" if in_f else "in the language but not in F"
            out.append(("recognition", w, f"element {e} {side}"))
    return out


def residual_signature(member, symbols, w, depth):
    return tuple(member(w + u) for u in all_words(symbols, depth))


def residual_class_count(member, symbols, depth, horizon):
    return len(
        {residual_signature(member, symbols, w, depth) for w in all_words(symbols, horizon)}
    )


def residual_assignment(member, symbols, depth, horizon):
    """word -> signature map for refinement checks."""
    return {
        w: residual_signature(member, symbols, w, depth)
        for w in all_words(symbols, horizon)
    }


def context_signature(member, symbols, u, m, n):
    return tuple(
        member(x + u + y) for x in all_words(symbols, m) for y in all_words(symbols, n)
    )


def context_class_count(member, symbols, m, n, bound):
    return len({context_signature(member, symbols, u, m, n) for u in all_words(symbols, bound)})


def word_actions(d, max_len):
    """Transformations induced by all words of length <= max_len."""
    actions = set()
    for w in all_words(d.alphabet.symbols, max_len):
        images = []
        for s in range(d.n_states):
            for ch in w:
                s = d.rows[s][d.alphabet.symbols.index(ch)]
            images.append(s)
        actions.add(tuple(images))
    return actions


def state_equivalent(d1, s1, d2, s2):
    """Exact residual-language equality of two states (product search)."""
    seen = {(s1, s2)}
    stack = [(s1, s2)]
    while stack:
        p, q = stack.pop()
        if (p in d1.finals) != (q in d2.finals):
            return False
        for k in range(len(d1.alphabet)):
            nxt = (d1.rows[p][k], d2.rows[q][k])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def brute_minimal_dfa(d):
    """Minimal DFA of L(d) from exact state equivalence: the reachable
    states grouped into classes by state_equivalent, the quotient numbered
    through canonical_form."""
    reachable = [d.initial]
    for s in reachable:  # grows while it is walked
        for t in d.rows[s]:
            if t not in reachable:
                reachable.append(t)
    reps, class_of = [], {}
    for s in reachable:
        i = next((i for i, r in enumerate(reps) if state_equivalent(d, s, d, r)), len(reps))
        if i == len(reps):
            reps.append(s)
        class_of[s] = i
    rows = tuple(tuple(class_of[t] for t in d.rows[r]) for r in reps)
    finals = frozenset(i for i, r in enumerate(reps) if r in d.finals)
    return canonical_form(Dfa(d.alphabet, len(reps), class_of[d.initial], finals, rows))


def residual_matching_morphism(d, target):
    """Map each source state to the unique language-equivalent target state."""
    mapping = []
    for s in range(d.n_states):
        matches = [t for t in range(target.n_states) if state_equivalent(d, s, target, t)]
        assert len(matches) == 1, f"state {s} matches {matches}"
        mapping.append(matches[0])
    return tuple(mapping)


def random_trim_dfa(rng, max_states=8, symbols="ab"):
    """Random complete DFA restricted to its reachable part."""
    n = rng.randint(1, max_states)
    k = rng.randint(1, len(symbols))
    alphabet = Alphabet.of(symbols[:k])
    rows = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    finals = frozenset(s for s in range(n) if rng.random() < 0.4)
    return canonical_form(Dfa(alphabet, n, 0, finals, rows))


def dfa_language_spec(d):
    return LanguageSpec(d.alphabet, DfaSpec(d))
