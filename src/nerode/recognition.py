"""Structure-preserving maps onto minimal recognizers, with verification.

Three constructions, each paired with an explicit checker so that claimed
maps are never trusted silently:

  * minimization_morphism: the unique state map from a trim DFA onto the
    minimal DFA of its language, with finals mapping exactly onto the
    accepting classes.
  * induced_hom: the monoid homomorphism between transition monoids that a
    surjective automaton morphism induces.
  * minimal_monoid_hom: the collapse of any finite monoid recognizing a
    rational language onto the syntactic monoid.

Every comparison with a spec is one walk, the automaton's columns read in
the spec's symbol order.  For a rational spec it is dfa.product_mismatches on the
product with the spec's DFA: exact for the DFA-vs-DFA check, while a
recognition report lists violations only up to its word bound.  An oracle
spec is checked word by word up to a bound.  The maps are computed, not
searched: the state map is the source's Nerode partition, and induced_hom
reads each transformation through the state map.
In finite monoids every subset is clopen and right translation is always
continuous, so the topological side conditions of the corresponding
infinite statements hold vacuously and are not re-checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .alphabet import bfs_closure, walk_states
from .dfa import Dfa, minimal_quotient, product_mismatches
from .errors import (
    ConsistencyError,
    IllDefinedHomError,
    InputError,
    RecognitionError,
    RecognitionMismatchError,
    TrimnessError,
)
from .language import LanguageSpec, presented_dfa, residual_bits
from .monoid import FiniteMonoid, require_rational, syntactic_monoid, transition_monoid
from .topology import ApproxAutomaton

DEFAULT_WORD_BOUND = 12


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: str
    detail: str = ""


@dataclass
class Report:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class AutomatonMorphism:
    """State map source -> target claimed to commute with the letter actions."""

    source: Dfa
    target: Dfa | ApproxAutomaton
    mapping: tuple[int, ...]


def minimization_morphism(
    d: Dfa, spec: LanguageSpec, bound: int = DEFAULT_WORD_BOUND
) -> AutomatonMorphism:
    """The unique morphism from a trim DFA onto the minimal DFA of the
    spec's language, sending each state to the class of its residual.

    Requires every state reachable (trimness) and L(d) = L(spec), compared
    by _mismatches as for every spec: exactly for a rational spec, whose
    shortest mismatch is a simple path in the product, so no longer than
    d's states times the spec DFA's; up to bound for an oracle, which alone
    reads it.  Refining the trimness closure gives each state's class.
    """
    if bound < 0:
        raise InputError("word length bound must be non-negative")
    c = bfs_closure(d.initial, d.rows.__getitem__)
    if len(c.items) < d.n_states:
        raise TrimnessError(sorted(set(range(d.n_states)) - set(c.items)))

    # d's columns in the spec's symbol order; a symbol only one alphabet has raises here
    cols = [d.alphabet.index(ch) for ch in spec.alphabet.symbols]
    for ch in d.alphabet.symbols:
        spec.alphabet.index(ch)
    limit = d.n_states * presented_dfa(spec).n_states if spec.rational else bound
    found = _mismatches(d.rows, cols, d.initial, d.finals, spec, limit, True)
    if found:
        raise RecognitionMismatchError(spec.alphabet.unrank(found[0][0]))

    target, classes = minimal_quotient(d.alphabet, c.rows, {c.index[s] for s in d.finals})
    return AutomatonMorphism(d, target, tuple(classes[c.index[s]] for s in range(d.n_states)))


def check_morphism(phi: AutomatonMorphism) -> Report:
    """Initial state, equivariance on every (state, symbol), and finals onto
    accepting in both directions; every violation is listed, none raised."""
    src = phi.source
    if len(phi.mapping) != src.n_states:
        raise InputError("morphism map must cover every source state")
    size = phi.target.n_states if isinstance(phi.target, Dfa) else len(phi.target.classes)
    for t in phi.mapping:
        if not 0 <= t < size:
            raise InputError(f"morphism map entry {t} out of range 0..{size - 1}")
    violations: list[Violation] = []

    t0 = phi.target.initial
    if phi.mapping[src.initial] != t0:
        violations.append(
            Violation("initial", str(src.initial), f"maps to {phi.mapping[src.initial]}, expected {t0}")
        )

    for s in range(src.n_states):
        for k, ch in enumerate(src.alphabet.symbols):
            expected = phi.target.successor(phi.mapping[s], ch)
            got = phi.mapping[src.rows[s][k]]
            if expected is None:
                violations.append(Violation("equivariance", f"{s}:{ch}", "target transition unresolved"))
            elif got != expected:
                violations.append(
                    Violation("equivariance", f"{s}:{ch}", f"map(s.{ch}) = {got}, map(s).{ch} = {expected}")
                )

    accepting = phi.target.accepting
    image_of_finals = {phi.mapping[s] for s in src.finals}
    for s in sorted(src.finals):
        if phi.mapping[s] not in accepting:
            violations.append(Violation("finals-forward", str(s), "final state maps outside the accepting set"))
    for t in sorted(accepting):
        if t not in image_of_finals:
            violations.append(Violation("finals-backward", str(t), "accepting class not hit by any final state"))

    return Report(tuple(violations))


@dataclass
class MonoidHom:
    """Element map between finite monoids; entries are None for source
    elements outside the generated part (reported in `ignored`)."""

    source: FiniteMonoid
    target: FiniteMonoid
    mapping: tuple[int | None, ...]
    ignored: tuple[int, ...] = ()


def induced_hom(phi: AutomatonMorphism) -> MonoidHom:
    """Homomorphism between transition monoids induced by a valid surjective
    automaton morphism: the action f of w upstairs maps to phi f phi^-1, the
    action of w downstairs.  That reads target state t through any preimage
    s of t, as phi(f(s)); equivariance makes the choice of s irrelevant.
    """
    if not isinstance(phi.target, Dfa):
        raise InputError("induced homomorphism needs a DFA target")
    report = check_morphism(phi)
    if not report.passed:
        v = report.violations[0]
        raise InputError(f"morphism is not valid: {v.kind} at {v.witness}")
    n = phi.target.n_states
    section = {t: s for s, t in enumerate(phi.mapping)}  # one preimage of each target state
    if len(section) != n:
        raise InputError("morphism is not surjective")

    m_src = transition_monoid(phi.source)
    m_tgt = transition_monoid(phi.target)
    index = {e: i for i, e in enumerate(m_tgt.elements)}
    mapping = tuple(index[tuple(phi.mapping[f[section[t]]] for t in range(n))] for f in m_src.elements)
    if set(mapping) != set(range(m_tgt.order)):
        raise ConsistencyError("induced homomorphism failed to cover the target monoid")
    return MonoidHom(m_src, m_tgt, mapping)


def _mismatches(table, cols, initial, finals, spec, bound, first_only):
    """product_mismatches of an automaton against the spec, cols in the
    spec's symbol order: on the product with a rational spec's DFA, and
    word by word, one decide call per word, for an oracle spec."""
    if spec.rational:
        return product_mismatches(table, cols, initial, finals, presented_dfa(spec), bound, first_only)
    rows = [[row[g] for g in cols] for row in table]
    pairs = zip(residual_bits(spec, "", bound), walk_states(initial, rows, bound))
    found = ((r, s) for r, (bit, s) in enumerate(pairs) if bool(bit) != (s in finals))
    return list(islice(found, 1)) if first_only else list(found)


def verify_recognition(
    monoid: FiniteMonoid,
    gen_images: dict[str, int],
    final_elements,
    spec: LanguageSpec,
    bound: int,
    *,
    first_only: bool = False,
) -> Report:
    """Check that words mapping into final_elements are exactly the members,
    for every word of length <= bound.  Violations are report content, in
    length-lex order; first_only keeps only the first.

    A rational spec is decided on the product of the element action with
    the spec's DFA (Rabin-Scott): no word is enumerated unless it violates
    or leads to a violation within the bound, and a recognizer with no
    reachable bad (element, state) pair costs one product BFS at any bound.
    The report still lists violations only up to the bound.  An oracle spec
    is checked word by word, one decide call per word of length <= bound.
    """
    for ch in spec.alphabet.symbols:
        if ch not in gen_images:
            raise InputError(f"no generator image for symbol {ch!r}")
        if not 0 <= gen_images[ch] < monoid.order:
            raise InputError(f"generator image for {ch!r} out of range")
    finals = frozenset(final_elements)
    for e in finals:
        if not 0 <= e < monoid.order:
            raise InputError(f"final element {e} out of range")
    if bound < 0:
        raise InputError("word length bound must be non-negative")
    cols = [gen_images[ch] for ch in spec.alphabet.symbols]
    side = {True: "in F but not in the language", False: "in the language but not in F"}
    return Report(tuple(
        Violation("recognition", spec.alphabet.unrank(r), f"element {e} {side[e in finals]}")
        for r, e in _mismatches(monoid.table, cols, 0, finals, spec, bound, first_only)
    ))


def minimal_monoid_hom(
    monoid: FiniteMonoid,
    gen_images: dict[str, int],
    final_elements,
    spec: LanguageSpec,
    bound: int = DEFAULT_WORD_BOUND,
) -> MonoidHom:
    """Collapse a recognizing monoid onto the syntactic monoid.

    The word map phi is determined by gen_images; it must recognize the
    language via final_elements up to the word bound.  That is checked
    first, on the product of the element action with the spec's DFA, and
    only the first violation is sought: a wrong final set raises
    RecognitionError before the syntactic monoid is built.  Images follow
    the BFS tree of the part of the monoid the images generate; the rest
    carries no word content and is left out (reported via `ignored`).
    Every generator step is checked: two words with equal phi-image whose
    syntactic images differ raise IllDefinedHomError, proof that
    final_elements cannot recognize the language.
    """
    require_rational(spec)
    report = verify_recognition(monoid, gen_images, final_elements, spec, bound, first_only=True)
    if not report.passed:
        raise RecognitionError(report.violations[0].witness)
    syntactic, _ = syntactic_monoid(spec)

    symbols = spec.alphabet.symbols
    cols = [gen_images[ch] for ch in symbols]
    target_cols = [syntactic.generators[ch] for ch in symbols]
    c = bfs_closure(0, lambda e: [monoid.table[e][g] for g in cols])
    images = [0]  # element 0 is the identity of both monoids
    for parent, k in c.tree:
        images.append(syntactic.table[images[parent]][target_cols[k]])
    for i, row in enumerate(c.rows):
        for k, j in enumerate(row):
            if images[j] != syntactic.table[images[i]][target_cols[k]]:
                witnesses = c.witnesses(symbols)
                raise IllDefinedHomError((witnesses[j], witnesses[i] + symbols[k]))
    image_of = dict(zip(c.items, images))
    mapping = tuple(image_of.get(e) for e in range(monoid.order))
    ignored = tuple(e for e, image in enumerate(mapping) if image is None)

    if set(mapping) - {None} != set(range(syntactic.order)):
        raise ConsistencyError("collapse failed to cover the syntactic monoid")
    return MonoidHom(monoid, syntactic, mapping, ignored)
