"""χ as a bit string indexed by length-lex rank, and the quotients read from it.

The slice arithmetic is checked against Alphabet.words and Alphabet.rank;
chi_bits against the dict view and membership; and the Myhill-Nerode,
closure and context buckets against brute-force signatures from
tests/oracles.py on every builtin oracle and on DFAs over up to three
letters, so that no bucket is only ever checked on a rational language.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    builtin_language,
    characteristic_table,
    context_classes,
    membership,
    nerode_classes,
    orbit_closure_report,
)
from nerode.language import chi_bits
from tests.corpus import ORACLE_NAMES, oracle_corpus_specs, regex_corpus_specs
from tests.oracles import (
    all_words,
    context_signature,
    dfa_language_spec,
    random_trim_dfa,
    residual_assignment,
    residual_signature,
)

# length-lex binary words 0, 1, 00, 01, ... concatenated, written out directly
CHAMPERNOWNE = "".join(format(j, f"0{n}b") for n in range(1, 9) for j in range(2**n))


def _dyck(w):
    while "ab" in w:
        w = w.replace("ab", "")
    return int(w == "")


BRUTE_MEMBER = {
    "anbn": lambda w: int(w == "a" * (len(w) // 2) + "b" * (len(w) // 2)),
    "dyck1": _dyck,
    "unary_powers_of_two": lambda w: int(bin(len(w)).count("1") == 1),
    "champernowne_unary": lambda w: int(CHAMPERNOWNE[len(w)]),
    "even_length": lambda w: int(len(w) % 2 == 0),
}


def _dfa_member(d):
    def member(w):
        s = d.initial
        for ch in w:
            s = d.rows[s][d.alphabet.symbols.index(ch)]
        return int(s in d.finals)

    return member


def _language(source):
    """(spec, brute-force member) for a builtin name or a DFA seed."""
    if isinstance(source, str):
        return builtin_language(source), BRUTE_MEMBER[source]
    d = random_trim_dfa(random.Random(source), max_states=5, symbols="abc")
    return dfa_language_spec(d), _dfa_member(d)


languages = st.one_of(st.sampled_from(ORACLE_NAMES), st.integers(0, 2**32 - 1)).map(_language)


@pytest.mark.parametrize("symbols", ["a", "ab", "abc"])
def test_residual_slices_locate_every_extension(symbols):
    a = Alphabet.of(symbols)
    for r, w in enumerate(a.words(3)):
        assert a.rank(w) == r
        for depth in range(4):
            slices = a.residual_slices(r, depth)
            assert len(slices) == depth + 1
            ranks = [i for s in slices for i in range(s.start, s.stop)]
            assert ranks == [a.rank(w + u) for u in a.words(depth)]


@pytest.mark.parametrize("spec", regex_corpus_specs() + oracle_corpus_specs(), ids=repr)
def test_chi_bits_is_the_characteristic_table(spec):
    for max_len in (0, 1, 5):
        bits = chi_bits(spec, max_len)
        assert isinstance(bits, bytes)
        assert list(bits) == list(characteristic_table(spec, max_len).values())
        symbols = spec.alphabet.symbols
        assert list(bits) == [membership(spec, w) for w in all_words(symbols, max_len)]


@settings(max_examples=80, deadline=None)
@given(languages, st.integers(0, 2), st.integers(0, 3))
def test_nerode_buckets_match_residual_signatures_beyond_dfas(language, depth, extra):
    spec, member = language
    symbols = spec.alphabet.symbols
    horizon = depth + extra
    a = nerode_classes(spec, depth, horizon)
    signatures = residual_assignment(member, symbols, depth, horizon)
    order = list(dict.fromkeys(signatures.values()))
    assert [p.bits for p in a.classes] == order
    first = {}
    for w, sig in signatures.items():
        first.setdefault(sig, w)
    assert list(a.witnesses) == [first[sig] for sig in order]
    assert a.accepting == {i for i, sig in enumerate(order) if sig[0] == 1}
    class_of = {sig: i for i, sig in enumerate(order)}
    inner = all_words(symbols, horizon - 1) if horizon else []
    for i, w in enumerate(a.witnesses):
        for k, ch in enumerate(symbols):
            target = class_of.get(residual_signature(member, symbols, w + ch, depth))
            consistent = target is not None and all(
                class_of[signatures[u + ch]] == target for u in inner if class_of[signatures[u]] == i
            )
            tr = a.transitions[i][k]
            assert (tr.target, tr.consistent) == (target, consistent)


@settings(max_examples=60, deadline=None)
@given(languages, st.integers(0, 2), st.integers(2, 5))
def test_closure_patterns_match_residual_signatures_beyond_dfas(language, depth, horizon):
    spec, member = language
    signatures = residual_assignment(member, spec.alphabet.symbols, depth, horizon)
    lengths = {}
    for w, sig in signatures.items():
        lengths.setdefault(sig, []).append(len(w))
    report = orbit_closure_report(spec, depth, horizon)
    assert [(p.point.bits, p.first_length, p.last_length, p.count) for p in report.patterns] == [
        (sig, ls[0], ls[-1], len(ls)) for sig, ls in lengths.items()
    ]


@settings(max_examples=60, deadline=None)
@given(languages, st.integers(0, 2), st.integers(0, 2), st.integers(1, 4))
def test_context_buckets_match_context_signatures_beyond_dfas(language, left, right, bound):
    spec, member = language
    symbols = spec.alphabet.symbols
    t = context_classes(spec, left, right, bound)
    labels = {u: context_signature(member, symbols, u, left, right) for u in all_words(symbols, bound)}
    order = list(dict.fromkeys(labels.values()))
    assert list(t.signatures) == order
    assert [list(ws) for ws in t.members] == [[u for u in labels if labels[u] == sig] for sig in order]
    assert list(t.representatives) == [ws[0] for ws in t.members]
