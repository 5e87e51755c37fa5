"""Finite-depth shadows of the residual dynamical system of a language.

The full state space is the set of all 0/1-valued functions on words, acted
on by appending letters; the language's orbit in there consists of its
residuals.  Everything here truncates that picture to a finite depth d: a
point remembers membership bits only for words of length <= d, and words are
bucketed by their depth-d residual truncation (a bounded Myhill-Nerode
relation): their (0, d) context classes, from the language.context_buckets
that monoid's two-sided context classes also use.  Depth-d
indistinguishability is not a right congruence, so quotient transitions are
computed on shortest witnesses and cross-checked against every enumerated
class member, with an explicit consistent flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Alphabet, Word
from .dfa import Dfa
from .errors import ConsistencyError, DepthExhaustedError, InputError
from .language import LanguageSpec, chi_bits, context_buckets, residual_bits, residual_key


@dataclass(frozen=True)
class TruncatedPoint:
    """Membership bits of every word of length <= depth, in length-lex order."""

    alphabet: Alphabet
    depth: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.depth < 0:
            raise InputError("depth must be non-negative")
        expected = self.alphabet.word_count(self.depth)
        if len(self.bits) != expected:
            raise InputError(f"expected {expected} bits for depth {self.depth}, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise InputError("table entries must be bits")

    def value(self, u: Word) -> int:
        self.alphabet.validate_word(u)
        if len(u) > self.depth:
            raise InputError(f"word {u!r} longer than depth {self.depth}")
        return self.bits[self.alphabet.rank(u)]

    def bit_string(self) -> str:
        return bytes(self.bits).translate(bytes.maketrans(b"\0\1", b"01")).decode()


def residual_truncation(spec: LanguageSpec, w: Word, d: int) -> TruncatedPoint:
    """Depth-d truncation of the residual of w: bits[u] = membership(w + u)."""
    if d < 0:
        raise InputError("depth must be non-negative")
    return TruncatedPoint(spec.alphabet, d, tuple(residual_bits(spec, w, d)))


def point_transition(p: TruncatedPoint, symbol: str) -> TruncatedPoint:
    """Act by one letter; costs one level of depth since bits[u] = old[symbol+u]."""
    if p.depth < 1:
        raise DepthExhaustedError("cannot act on a depth-0 point")
    # the words symbol + u, |u| < depth: symbol has rank index + 1
    slices = p.alphabet.residual_slices(p.alphabet.index(symbol) + 1, p.depth - 1)
    return TruncatedPoint(p.alphabet, p.depth - 1, tuple(b for s in slices for b in p.bits[s]))


@dataclass(frozen=True)
class Transition:
    """Quotient edge; target is None when the successor class was never
    enumerated, consistent is False when class members disagree."""

    target: int | None
    consistent: bool


@dataclass
class ApproxAutomaton:
    """Depth-d quotient of the enumerated residuals of a language.

    Classes are listed in length-lex order of their first witness, so class 0
    is the class of the empty word and doubles as the initial state.
    """

    alphabet: Alphabet
    depth: int
    horizon: int
    classes: tuple[TruncatedPoint, ...]
    witnesses: tuple[Word, ...]
    transitions: tuple[tuple[Transition, ...], ...]
    accepting: frozenset[int]

    @property
    def initial(self) -> int:
        return 0

    def step(self, class_index: int, symbol: str) -> Transition:
        return self.transitions[class_index][self.alphabet.index(symbol)]

    def successor(self, class_index: int, symbol: str) -> int | None:
        return self.step(class_index, symbol).target

    def to_dfa(self) -> Dfa:
        rows = []
        for row in self.transitions:
            targets = []
            for tr in row:
                if tr.target is None or not tr.consistent:
                    raise ConsistencyError(
                        "quotient has unverified transitions; it does not define a DFA"
                    )
                targets.append(tr.target)
            rows.append(tuple(targets))
        return Dfa(self.alphabet, len(self.classes), 0, frozenset(self.accepting), tuple(rows))


def nerode_classes(spec: LanguageSpec, d: int, horizon: int) -> ApproxAutomaton:
    """Bucket all words of length <= horizon by depth-d residual truncation."""
    if d < 0:
        raise InputError("depth must be non-negative")
    if horizon < d:
        raise InputError("horizon must be at least the depth")
    return _quotient(spec.alphabet, chi_bits(spec, horizon + d + 1), d, horizon)


def _quotient(alphabet: Alphabet, chi: bytes, d: int, horizon: int) -> ApproxAutomaton:
    """nerode_classes read from a χ that covers the words of length
    horizon + d + 1 or longer, so that one χ serves several depths."""
    k = len(alphabet)
    n = alphabet.word_count(horizon)  # the enumerated words are the ranks below n
    class_of, members, label = context_buckets(chi, alphabet, 0, d, horizon)
    witnesses = tuple(alphabet.unrank(rs[0]) for rs in members)

    transitions = []
    for rs in members:
        row = []
        for i in range(1, k + 1):  # the successor of rank r on the i-th symbol is r·k + i
            t = rs[0] * k + i
            # a witness on the horizon is evaluated past it
            target = label[t] if t < n else class_of.get(residual_key(chi, alphabet, t, d))
            # every enumerated successor of a member must land in the same class
            consistent = target is not None and all(
                r * k + i >= n or label[r * k + i] == target for r in rs
            )
            row.append(Transition(target, consistent))
        transitions.append(tuple(row))

    classes = tuple(TruncatedPoint(alphabet, d, tuple(key)) for key in class_of)
    accepting = frozenset(ci for ci, key in enumerate(class_of) if key[0] == 1)
    return ApproxAutomaton(alphabet, d, horizon, classes, witnesses, tuple(transitions), accepting)


@dataclass
class StabilizationVerdict:
    """Outcome of comparing the depth-d and depth-(d+1) quotients.

    Stabilization (equal counts, bijective refinement, all transitions
    consistent) certifies the depth-d quotient as the minimal DFA when the
    language is known rational; for oracle languages it is only a heuristic
    that the probed depths stopped separating residuals.
    """

    stabilized: bool
    depths: tuple[int, int]
    counts: tuple[int, int]
    size: int | None
    proposed: Dfa | None


def stabilization_check(spec: LanguageSpec, d: int, horizon: int) -> StabilizationVerdict:
    if horizon < d + 1:
        raise InputError("horizon must be at least depth + 1")
    if d < 0:
        raise InputError("depth must be non-negative")
    chi = chi_bits(spec, horizon + d + 2)
    coarse = _quotient(spec.alphabet, chi, d, horizon)
    fine = _quotient(spec.alphabet, chi, d + 1, horizon)
    counts = (len(coarse.classes), len(fine.classes))

    def all_consistent(a: ApproxAutomaton) -> bool:
        return all(tr.consistent and tr.target is not None for row in a.transitions for tr in row)

    # both quotients bucket the same words and the fine partition refines the
    # coarse one, so equal counts make the refinement a bijection
    stabilized = counts[0] == counts[1] and all_consistent(coarse) and all_consistent(fine)
    return StabilizationVerdict(
        stabilized,
        (d, d + 1),
        counts,
        counts[0] if stabilized else None,
        coarse.to_dfa() if stabilized else None,
    )


@dataclass(frozen=True)
class ClosurePattern:
    point: TruncatedPoint
    first_length: int
    last_length: int
    count: int
    recurrent: bool


@dataclass
class ClosureReport:
    """Occurrence statistics of depth-d truncations over the horizon band.

    A pattern is called recurrent when some witness lies in the top half of
    the band (length > horizon/2) -- a finite stand-in for the pattern being
    hit arbitrarily late in the orbit; otherwise it is transient.
    """

    depth: int
    horizon: int
    patterns: tuple[ClosurePattern, ...]


def orbit_closure_report(spec: LanguageSpec, d: int, horizon: int) -> ClosureReport:
    if d < 0:
        raise InputError("depth must be non-negative")
    if horizon < 2:
        raise InputError("horizon must be at least 2")
    alphabet = spec.alphabet
    chi = chi_bits(spec, horizon + d)
    class_of, members, _ = context_buckets(chi, alphabet, 0, d, horizon)
    patterns = []
    for key, rs in zip(class_of, members):
        first, last = len(alphabet.unrank(rs[0])), len(alphabet.unrank(rs[-1]))
        point = TruncatedPoint(alphabet, d, tuple(key))
        patterns.append(ClosurePattern(point, first, last, len(rs), recurrent=2 * last > horizon))
    return ClosureReport(d, horizon, tuple(patterns))
