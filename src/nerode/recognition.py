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

Verification is finite and exact for DFA-vs-DFA language comparisons
(product construction); oracle comparisons are bounded by a word length.
In finite monoids every subset is clopen and right translation is always
continuous, so the topological side conditions of the corresponding
infinite statements hold vacuously and are not re-checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import bfs_closure, walk_states
from .dfa import Dfa, access_words, language_mismatch, minimize_dfa
from .errors import (
    ConsistencyError,
    IllDefinedHomError,
    InputError,
    RecognitionError,
    RecognitionMismatchError,
    TrimnessError,
)
from .language import LanguageSpec, presented_dfa, residual_bits
from .monoid import FiniteMonoid, syntactic_monoid, transition_monoid
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

    Requires every state reachable (trimness) and L(d) = L(spec): exact via
    the product automaton for rational specs, bounded-word check otherwise.
    The bound is checked for every spec, although only an oracle reads it.
    """
    if bound < 0:
        raise InputError("word length bound must be non-negative")
    access = access_words(d)
    unreachable = sorted(set(range(d.n_states)) - set(access))
    if unreachable:
        raise TrimnessError(unreachable)

    if spec.rational:
        witness = language_mismatch(d, presented_dfa(spec))
        if witness is not None:
            raise RecognitionMismatchError(witness)
    else:
        bits = residual_bits(spec, "", bound)
        # d's columns in the spec's symbol order; a spec symbol d lacks raises here
        cols = [d.alphabet.index(ch) for ch in spec.alphabet.symbols]
        rows = [[row[k] for k in cols] for row in d.rows]
        for w, bit, s in zip(spec.alphabet.words(bound), bits, walk_states(d.initial, rows, bound)):
            if bool(bit) != (s in d.finals):
                raise RecognitionMismatchError(w)

    target = minimize_dfa(d)
    mapping = tuple(target.run(access[s]) for s in range(d.n_states))
    return AutomatonMorphism(d, target, mapping)


def check_morphism(phi: AutomatonMorphism) -> Report:
    """Initial state, equivariance on every (state, symbol), and finals onto
    accepting in both directions; every violation is listed, none raised."""
    src = phi.source
    if len(phi.mapping) != src.n_states:
        raise InputError("morphism map must cover every source state")
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


def _generated_hom(
    source: FiniteMonoid, gen_images: dict[str, int], target: FiniteMonoid, symbols, clash
) -> list[int | None]:
    """Map the source element of each word over symbols (letter ch read as
    gen_images[ch]) to its target element (ch read as target.generators[ch]).

    Images follow the BFS tree of the generated part of source, one table
    lookup per element; elements outside it map to None.  Every generator
    step is checked: the first pair of words naming one source element but
    two target elements is raised as clash(pair).
    """
    cols = [gen_images[ch] for ch in symbols]
    target_cols = [target.generators[ch] for ch in symbols]
    c = bfs_closure(0, lambda e: [source.table[e][g] for g in cols])
    images = [0]  # element 0 is the identity of both monoids
    for parent, k in c.tree:
        images.append(target.table[images[parent]][target_cols[k]])
    for i, row in enumerate(c.rows):
        for k, j in enumerate(row):
            if images[j] != target.table[images[i]][target_cols[k]]:
                witnesses = c.witnesses(symbols)
                raise clash((witnesses[j], witnesses[i] + symbols[k]))
    mapping: list[int | None] = [None] * source.order
    for e, image in zip(c.items, images):
        mapping[e] = image
    return mapping


def induced_hom(phi: AutomatonMorphism) -> MonoidHom:
    """Homomorphism between transition monoids induced by a valid surjective
    automaton morphism: the action of w upstairs maps to the action of w
    downstairs.
    """
    if not isinstance(phi.target, Dfa):
        raise InputError("induced homomorphism needs a DFA target")
    report = check_morphism(phi)
    if not report.passed:
        v = report.violations[0]
        raise InputError(f"morphism is not valid: {v.kind} at {v.witness}")
    if set(phi.mapping) != set(range(phi.target.n_states)):
        raise InputError("morphism is not surjective")

    m_src = transition_monoid(phi.source)
    m_tgt = transition_monoid(phi.target)

    # Well-definedness alarm: with a valid surjective morphism the witness
    # choice cannot matter, so a disagreement means a bug, not bad input.
    def clash(pair):
        return ConsistencyError(
            f"witnesses {pair[0]!r} and {pair[1]!r} name one element but map to different targets"
        )

    mapping = _generated_hom(m_src, m_src.generators, m_tgt, phi.source.alphabet.symbols, clash)
    if set(mapping) != set(range(m_tgt.order)):
        raise ConsistencyError("induced homomorphism failed to cover the target monoid")
    return MonoidHom(m_src, m_tgt, tuple(mapping))


def _check_gen_images(spec: LanguageSpec, monoid: FiniteMonoid, gen_images: dict[str, int]):
    for ch in spec.alphabet.symbols:
        if ch not in gen_images:
            raise InputError(f"no generator image for symbol {ch!r}")
        if not 0 <= gen_images[ch] < monoid.order:
            raise InputError(f"generator image for {ch!r} out of range")


def verify_recognition(
    monoid: FiniteMonoid,
    gen_images: dict[str, int],
    final_elements,
    spec: LanguageSpec,
    bound: int,
) -> Report:
    """Check that words mapping into final_elements are exactly the members,
    for every word of length <= bound.  Violations are report content."""
    _check_gen_images(spec, monoid, gen_images)
    finals = frozenset(final_elements)
    for e in finals:
        if not 0 <= e < monoid.order:
            raise InputError(f"final element {e} out of range")
    bits = residual_bits(spec, "", bound)
    cols = [gen_images[ch] for ch in spec.alphabet.symbols]
    rows = [[row[g] for g in cols] for row in monoid.table]
    violations = []
    for w, bit, e in zip(spec.alphabet.words(bound), bits, walk_states(0, rows, bound)):
        in_f = e in finals
        member = bool(bit)
        if in_f != member:
            side = "in F but not in the language" if in_f else "in the language but not in F"
            violations.append(Violation("recognition", w, f"element {e} {side}"))
    return Report(tuple(violations))


def minimal_monoid_hom(
    monoid: FiniteMonoid,
    gen_images: dict[str, int],
    final_elements,
    spec: LanguageSpec,
    bound: int = DEFAULT_WORD_BOUND,
) -> MonoidHom:
    """Collapse a recognizing monoid onto the syntactic monoid.

    The word map phi is determined by gen_images; it must recognize the
    language via final_elements up to the word bound (checked first).  The
    part of the monoid not generated by the images carries no word content
    and is left out of the map (reported via `ignored`).  A well-definedness
    failure names two words with equal phi-image whose syntactic images
    differ: proof that final_elements cannot recognize the language.
    """
    syntactic, _ = syntactic_monoid(spec)  # rejects oracle presentations up front
    report = verify_recognition(monoid, gen_images, final_elements, spec, bound)
    if not report.passed:
        raise RecognitionError(report.violations[0].witness)

    mapping = _generated_hom(monoid, gen_images, syntactic, spec.alphabet.symbols, IllDefinedHomError)
    ignored = tuple(e for e, image in enumerate(mapping) if image is None)

    if set(mapping) - {None} != set(range(syntactic.order)):
        raise ConsistencyError("collapse failed to cover the syntactic monoid")
    return MonoidHom(monoid, syntactic, tuple(mapping), ignored)
