"""Ranks are the only index of the bounded objects; words are built from
them (Alphabet.unrank) only where output prints them.

unrank is checked against rank and Alphabet.words; the bounded readers
must not enumerate words beyond the one χ or bit fill of an oracle spec;
and a context class table keeps one small label per rank, not the words.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    Dfa,
    InputError,
    RecognitionMismatchError,
    context_classes,
    growth_profile,
    membership,
    minimization_morphism,
    nerode_classes,
    orbit_closure_report,
    stabilization_check,
    syntactic_monoid,
    verify_recognition,
)
from tests.corpus import builtin_language, regex_spec
from tests.oracles import all_words, dfa_language_spec, random_trim_dfa

alphabets = st.sampled_from(["a", "ab", "ba", "abc", "cab", "xyz"]).map(Alphabet.of)


@settings(max_examples=100, deadline=None)
@given(alphabets, st.lists(st.integers(0, 2), max_size=12), st.integers(0, 10**9))
def test_unrank_inverts_rank(alphabet, digits, seed):
    w = "".join(alphabet.symbols[i % len(alphabet)] for i in digits)
    assert alphabet.unrank(alphabet.rank(w)) == w
    r = seed % alphabet.word_count(12)  # a unary rank is a word length
    assert alphabet.rank(alphabet.unrank(r)) == r


@pytest.mark.parametrize("symbols", ["a", "ab", "ba", "abc", "cab"])
def test_unrank_enumerates_words_in_length_lex_order(symbols):
    alphabet = Alphabet.of(symbols)
    for n in range(6):
        assert [alphabet.unrank(r) for r in range(alphabet.word_count(n))] == list(alphabet.words(n))


def test_unrank_rejects_negative_ranks():
    with pytest.raises(InputError):
        Alphabet.of("ab").unrank(-1)


@pytest.fixture
def words_calls(monkeypatch):
    calls = []
    original = Alphabet.words

    def counting(self, max_len):
        calls.append(max_len)
        return original(self, max_len)

    monkeypatch.setattr(Alphabet, "words", counting)
    return calls


READERS = [
    "context_classes",
    "growth_profile",
    "nerode_classes",
    "orbit_closure_report",
    "stabilization_check",
    "verify_recognition",
]


def _bounded_readers(spec):
    monoid, finals = syntactic_monoid(regex_spec("(a|b)*ab", "ab"))
    return {
        "nerode_classes": lambda: nerode_classes(spec, 2, 4),
        "stabilization_check": lambda: stabilization_check(spec, 1, 4),
        "orbit_closure_report": lambda: orbit_closure_report(spec, 2, 4),
        "context_classes": lambda: context_classes(spec, 1, 1, 4),
        "growth_profile": lambda: growth_profile(spec, 2, 4),
        "verify_recognition": lambda: verify_recognition(monoid, monoid.generators, finals, spec, 5),
    }


@pytest.mark.parametrize(
    "spec",
    [regex_spec("(a|b)*ab", "ab"), dfa_language_spec(random_trim_dfa(random.Random(7), symbols="ab"))],
    ids=["regex", "dfa"],
)
@pytest.mark.parametrize("reader", READERS)
def test_rational_bounded_readers_enumerate_no_words(words_calls, spec, reader):
    _bounded_readers(spec)[reader]()
    assert words_calls == []


@pytest.mark.parametrize("reader", READERS)
def test_oracle_bounded_readers_enumerate_words_once(words_calls, reader):
    # an oracle is decided word by word, so its one χ or bit fill builds them
    _bounded_readers(builtin_language("anbn"))[reader]()
    assert len(words_calls) == 1


def _ab_or_empty():
    """Accepts exactly "" and "ab": it agrees with anbn up to length 3."""
    sink = 3
    rows = ((1, sink), (sink, 2), (sink, sink), (sink, sink))
    return Dfa(Alphabet.of("ab"), 4, 0, frozenset({0, 2}), rows)


def test_oracle_minimization_check_unranks_its_mismatch(words_calls):
    spec = builtin_language("anbn")
    assert sorted(minimization_morphism(_ab_or_empty(), spec, 3).mapping) == [0, 1, 2, 3]
    with pytest.raises(RecognitionMismatchError) as e:
        minimization_morphism(_ab_or_empty(), spec, 4)
    assert e.value.witness == "aabb"
    assert len(words_calls) == 2  # one bit fill per call, inside residual_bits


@pytest.mark.parametrize("finals", [set(), {0}, None], ids=["none", "identity", "all"])
def test_recognition_violations_name_the_brute_force_words(finals):
    spec = regex_spec("(a|b)*ab", "ab")
    monoid, _ = syntactic_monoid(spec)
    finals = set(range(monoid.order)) if finals is None else finals
    report = verify_recognition(monoid, monoid.generators, finals, spec, 6)
    expected = [
        w for w in all_words("ab", 6) if (monoid.evaluate_word(w) in finals) != membership(spec, w)
    ]
    assert [v.witness for v in report.violations] == expected


def test_context_table_retains_no_words():
    spec = regex_spec("(a|b)*a(a|b)", "ab")
    context_classes(spec, 1, 1, 2)  # compile the regex outside the measurement
    tracemalloc.start()
    try:
        t = context_classes(spec, 1, 1, 14)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.sizes) == spec.alphabet.word_count(14)
    assert retained < 1 << 20


@pytest.mark.parametrize(
    "spec, m, n, bound",
    [(regex_spec("(a|b)*a(a|b)", "ab"), 1, 1, 5), (builtin_language("anbn"), 2, 1, 4),
     (regex_spec("(aa)*", "a"), 1, 0, 6)],
    ids=["regex-ab", "anbn", "regex-a"],
)
def test_context_members_and_class_of_read_the_labels(spec, m, n, bound):
    t = context_classes(spec, m, n, bound)
    assert t.labels.typecode == "B" and len(t.labels) == spec.alphabet.word_count(bound)
    members = t.members
    assert tuple(map(len, members)) == t.sizes
    assert tuple(ws[0] for ws in members) == t.representatives
    assert sorted(w for ws in members for w in ws) == sorted(all_words(spec.alphabet.symbols, bound))
    for ci, ws in enumerate(members):
        assert all(t.class_of(w) == ci for w in ws)


def test_context_class_of_foreign_symbol_names_the_alphabet():
    t = context_classes(regex_spec("(a|b)*ab", "ab"), 1, 1, 3)
    with pytest.raises(InputError, match="not in alphabet 'ab'"):
        t.class_of("ax")
    with pytest.raises(InputError, match="was not enumerated"):
        t.class_of("abab")
