"""Finite transformation monoids acting on DFA state sets.

Elements are image tuples (state i maps to images[i]); composition is in
action order, so table[i][j] is "apply i, then j", matching the right action
of words on states.  Breadth-first closure over the generators assigns each
element its shortest length-lex witness word and a canonical index.  Each
row of the Cayley table is an array.array of the smallest unsigned typecode
that holds every index, so up to order 65 536 the order-squared table takes
1 or 2 bytes per cell.

The syntactic monoid of a rational language is the transition monoid of its
minimal DFA, together with the final element set F = {s : s(initial) in
finals}; a word belongs to the language iff its action lies in F.  For
non-rational languages the same object is infinite, and context_classes
computes its finite shadows: language.context_buckets groups words by which
bounded two-sided contexts put them in the language, and its (0, d) case is
topology's depth-d Myhill-Nerode quotient.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass, field

from .alphabet import Alphabet, Word, bfs_closure
from .dfa import Dfa
from .errors import InputError, ResourceError, UnsupportedPresentationError
from .language import LanguageSpec, chi_bits, context_buckets, minimal_dfa

Transformation = tuple[int, ...]

DEFAULT_ELEMENT_CAP = 10_000
CAP_ENV_VAR = "NERODE_MONOID_CAP"


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Apply f, then g."""
    return tuple(g[x] for x in f)


def _typecode(order: int) -> str:
    """The smallest unsigned array typecode that holds the indices 0..order-1."""
    return "B" if order <= 1 << 8 else "H" if order <= 1 << 16 else "L"


def _resolve_cap(cap: int | None) -> int:
    source = "the cap argument"
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if env is None:
            return DEFAULT_ELEMENT_CAP
        try:
            cap = int(env)
        except ValueError:
            raise InputError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
        source = CAP_ENV_VAR
    if cap < 1:
        raise InputError(f"{source} must be at least 1, got {cap}")
    return cap


@dataclass
class FiniteMonoid:
    """Transformation monoid with multiplication table and word witnesses.

    elements[0] is the identity (witness: the empty word); table[i][j] is the
    index of elements[i] followed by elements[j].  Each row table[i] is an
    array.array of the smallest unsigned typecode that holds every index,
    indexed like a tuple and read-only by convention.
    """

    n_states: int
    elements: tuple[Transformation, ...]
    table: tuple[array, ...]
    generators: dict[str, int]
    witnesses: tuple[Word, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def evaluate_word(self, w: Word) -> int:
        """Index of the action of w (fold the generators left to right)."""
        e = 0
        for ch in w:
            g = self.generators.get(ch)
            if g is None:
                raise InputError(f"symbol {ch!r} has no generator in this monoid")
            e = self.table[e][g]
        return e


def monoid_from_generators(
    n_states: int, generators: dict[str, Transformation], cap: int | None = None
) -> FiniteMonoid:
    """BFS closure of the generators under composition.

    Iteration order of the generators dict fixes the length-lex tie-break,
    so pass symbols in alphabet order.
    """
    cap = _resolve_cap(cap)
    for ch, g in generators.items():
        if len(g) != n_states or any(not 0 <= x < n_states for x in g):
            raise InputError(f"generator for {ch!r} is not a transformation of {n_states} states")
    gens = list(generators.values())

    def admit(count: int) -> None:
        if count >= cap:
            raise ResourceError(
                f"monoid closure exceeded the cap of {cap} elements"
                f" (override with {CAP_ENV_VAR} or the cap argument)"
            )

    c = bfs_closure(tuple(range(n_states)), lambda f: [compose(f, g) for g in gens], admit)
    elements, index = c.items, c.index
    code = _typecode(len(elements))
    table = tuple(array(code, [index[compose(f, g)] for g in elements]) for f in elements)
    gen_map = {ch: index[tuple(g)] for ch, g in generators.items()}
    witnesses = c.witnesses(list(generators))
    return FiniteMonoid(n_states, tuple(elements), table, gen_map, tuple(witnesses))


def transition_monoid(d: Dfa, cap: int | None = None) -> FiniteMonoid:
    """All word actions on the DFA's state set."""
    gens = {
        ch: tuple(d.rows[s][k] for s in range(d.n_states))
        for k, ch in enumerate(d.alphabet.symbols)
    }
    return monoid_from_generators(d.n_states, gens, cap)


def require_rational(spec: LanguageSpec) -> None:
    """Reject an oracle spec: only a rational one has a finite syntactic monoid."""
    if not spec.rational:
        raise UnsupportedPresentationError(
            "syntactic monoid needs a regex or dfa presentation; use context_classes instead"
        )


def syntactic_monoid(
    spec: LanguageSpec, cap: int | None = None
) -> tuple[FiniteMonoid, frozenset[int]]:
    """Transition monoid of the minimal DFA plus the recognizing subset F.

    Only rational specs have a finite syntactic monoid; for oracle specs use
    context_classes, which lower-bounds it.
    """
    require_rational(spec)
    m = minimal_dfa(spec)
    monoid = transition_monoid(m, cap)
    final_elements = frozenset(
        i for i, e in enumerate(monoid.elements) if e[m.initial] in m.finals
    )
    return monoid, final_elements


def idempotent_power(monoid: FiniteMonoid, s: int) -> int:
    """The unique idempotent power of s: the first s^k with s^k s^k = s^k.

    Every element of a finite monoid has one, identity or not; non-identity
    idempotents are what make transformation monoids structurally rich.
    """
    if not 0 <= s < monoid.order:
        raise InputError(f"element {s} out of range 0..{monoid.order - 1}")
    p = s
    while monoid.table[p][p] != p:
        p = monoid.table[p][s]
    return p


@dataclass
class ContextClassTable:
    """Words of length <= bound partitioned by bounded context signature.

    Two words are equivalent when exactly the same contexts (x, y) with
    |x| <= left and |y| <= right put them in the language.  As the bounds
    grow these partitions converge to the syntactic congruence, so the class
    count is a lower bound for the syntactic monoid's order.

    labels[r] is the class of the word of rank r, in the smallest unsigned
    array typecode; members and class_of are derived from it on each call.
    """

    alphabet: Alphabet
    left: int
    right: int
    bound: int
    representatives: tuple[Word, ...]
    sizes: tuple[int, ...]
    signatures: tuple[tuple[int, ...], ...]
    labels: array = field(repr=False)

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    @property
    def members(self) -> tuple[tuple[Word, ...], ...]:
        out = [[] for _ in self.representatives]
        for r, ci in enumerate(self.labels):
            out[ci].append(self.alphabet.unrank(r))
        return tuple(map(tuple, out))

    def class_of(self, u: Word) -> int:
        if len(u) > self.bound:
            raise InputError(f"word {u!r} was not enumerated (bound {self.bound})")
        return self.labels[self.alphabet.rank(u)]


def context_classes(spec: LanguageSpec, m: int, n: int, bound: int) -> ContextClassTable:
    if m < 0 or n < 0:
        raise InputError("context bounds must be non-negative")
    if bound < 1:
        raise InputError("word-length bound must be at least 1")
    index, labels, first = context_buckets(chi_bits(spec, m + bound + n), spec.alphabet, m, n, bound)
    return ContextClassTable(
        spec.alphabet,
        m,
        n,
        bound,
        tuple(map(spec.alphabet.unrank, first)),
        tuple(Counter(labels).values()),  # in class order: classes are numbered by first rank
        tuple(map(tuple, index)),
        array(_typecode(len(index)), labels),
    )


@dataclass
class GrowthProfile:
    """Context class counts at symmetric bounds (k, k) for k = 1..kmax."""

    counts: tuple[int, ...]
    bound: int

    @property
    def bounded(self) -> bool | None:
        if len(self.counts) < 2:
            return None
        return self.counts[-1] == self.counts[-2]

    @property
    def verdict(self) -> str:
        if self.bounded is None:
            return "inconclusive"
        return "bounded (rational-consistent)" if self.bounded else "growing"


def growth_profile(spec: LanguageSpec, kmax: int, bound: int) -> GrowthProfile:
    if kmax < 1:
        raise InputError("kmax must be at least 1")
    if bound < kmax:
        raise InputError("word-length bound must be at least kmax")
    chi = chi_bits(spec, 2 * kmax + bound)
    counts = [len(context_buckets(chi, spec.alphabet, k, k, bound)[0]) for k in range(1, kmax + 1)]
    return GrowthProfile(tuple(counts), bound)
