"""Differential tests of the three exploration primitives on random DFAs.

The state walk, the BFS closure and the residual bucketing are compared
with the brute-force helpers in tests/oracles.py, which enumerate words with
itertools and run every word on its own.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    Dfa,
    InputError,
    characteristic_table,
    context_classes,
    is_strongly_connected,
    language_mismatch,
    nerode_classes,
    transition_monoid,
)
from nerode.alphabet import bfs_closure, walk_states
from nerode.dfa import access_words
from tests.oracles import (
    all_words,
    context_class_count,
    context_signature,
    dfa_language_spec,
    dfa_words,
    random_trim_dfa,
    residual_assignment,
)

seeds = st.integers(0, 2**32 - 1)


def _run(d, w, s=None):
    s = d.initial if s is None else s
    for ch in w:
        s = d.rows[s][d.alphabet.symbols.index(ch)]
    return s


def _partition(labels):
    """Words grouped by label, as a set of frozensets."""
    groups = {}
    for w, label in labels.items():
        groups.setdefault(label, set()).add(w)
    return {frozenset(g) for g in groups.values()}


def test_words_are_the_length_ordered_products():
    for symbols in ("a", "ba", "abc"):
        for n in range(6):  # n = 0 and n = 1 build no level list
            assert list(Alphabet.of(symbols).words(n)) == all_words(symbols, n)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 6))
def test_walk_pairs_every_word_with_its_state(seed, max_len):
    d = random_trim_dfa(random.Random(seed))
    words = list(d.alphabet.words(max_len))
    states = list(walk_states(d.initial, d.rows, max_len))
    assert words == all_words(d.alphabet.symbols, max_len)
    assert states == [_run(d, w) for w in words]
    chi = characteristic_table(dfa_language_spec(d), max_len)
    assert list(chi) == words
    assert {w for w, bit in chi.items() if bit} == dfa_words(d, max_len)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_closure_matches_brute_force_reachability(seed):
    rng = random.Random(seed)
    d = random_trim_dfa(rng, max_states=6)
    n, symbols = d.n_states, d.alphabet.symbols
    perm = rng.sample(range(n), n)  # renumber, so that BFS order is not state order
    rows = [None] * n
    for s, row in enumerate(d.rows):
        rows[perm[s]] = tuple(perm[t] for t in row)
    d = Dfa(d.alphabet, n, perm[d.initial], frozenset(perm[q] for q in d.finals), tuple(rows))
    words = all_words(symbols, n)  # every reachable state has an access word shorter than n
    first_word = {}
    for w in words:
        first_word.setdefault(_run(d, w), w)
    assert access_words(d) == first_word

    c = bfs_closure(d.initial, d.rows.__getitem__)
    assert c.items == sorted(first_word, key=lambda s: words.index(first_word[s]))
    assert [[c.items[j] for j in row] for row in c.rows] == [list(d.rows[s]) for s in c.items]

    reaches_initial = all(
        any(_run(d, w, s) == d.initial for w in words) for s in range(n)
    )
    assert is_strongly_connected(d) == reaches_initial


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_product_search_finds_first_mismatch(seed_a, seed_b):
    a = random_trim_dfa(random.Random(seed_a), max_states=3, symbols="ab")
    b = random_trim_dfa(random.Random(seed_b), max_states=3, symbols="ab")
    if a.alphabet != b.alphabet:
        with pytest.raises(InputError, match="^language comparison needs a common alphabet$"):
            language_mismatch(a, b)
        return
    words = all_words(a.alphabet.symbols, a.n_states * b.n_states)
    diff = [w for w in words if (_run(a, w) in a.finals) != (_run(b, w) in b.finals)]
    assert language_mismatch(a, b) == (diff[0] if diff else None)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_monoid_witnesses_are_first_words_with_their_action(seed):
    d = random_trim_dfa(random.Random(seed), max_states=4)
    m = transition_monoid(d)

    def action(w):
        return tuple(_run(d, w, s) for s in range(d.n_states))

    # a level of words that adds no new action ends the closure
    longest = max(len(w) for w in m.witnesses)
    first_word = {}
    for w in all_words(d.alphabet.symbols, longest + 1):
        first_word.setdefault(action(w), w)
    assert set(m.elements) == set(first_word)
    assert list(m.witnesses) == [first_word[e] for e in m.elements]


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 2), st.integers(0, 3))
def test_nerode_buckets_match_residual_signatures(seed, depth, extra):
    d = random_trim_dfa(random.Random(seed), max_states=6)
    spec = dfa_language_spec(d)
    horizon = depth + extra
    a = nerode_classes(spec, depth, horizon)
    member = lambda w: int(_run(d, w) in d.finals)  # noqa: E731
    signatures = residual_assignment(member, d.alphabet.symbols, depth, horizon)
    assert [p.bits for p in a.classes] == list(dict.fromkeys(signatures.values()))
    assert [signatures[w] for w in a.witnesses] == [p.bits for p in a.classes]
    suffixes = all_words(d.alphabet.symbols, depth)
    for w, p in zip(a.witnesses, a.classes):
        assert [p.value(u) for u in suffixes] == [member(w + u) for u in suffixes]


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 2), st.integers(0, 2), st.integers(1, 4))
def test_context_buckets_match_context_signatures(seed, left, right, bound):
    d = random_trim_dfa(random.Random(seed), max_states=5)
    spec = dfa_language_spec(d)
    t = context_classes(spec, left, right, bound)
    symbols = d.alphabet.symbols
    member = lambda w: int(_run(d, w) in d.finals)  # noqa: E731
    assert t.class_count == context_class_count(member, symbols, left, right, bound)
    labels = {u: context_signature(member, symbols, u, left, right) for u in all_words(symbols, bound)}
    assert {frozenset(ws) for ws in t.members} == _partition(labels)
    assert list(t.signatures) == [labels[u] for u in t.representatives]
