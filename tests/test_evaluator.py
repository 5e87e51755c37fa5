"""The one residual evaluator and the bulk paths that read from it.

residual_bits is checked against membership() word by word and against
brute-force DFA runs; BitStream against one-shot prefixes; and the unary
bit stream against the quadratic validation cost it used to pay.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    BitStream,
    InputError,
    builtin_language,
    builtin_names,
    champernowne_prefix,
    champernowne_stream,
    membership,
    residual_bits,
    residual_truncation,
)
from tests.corpus import cycle_dfa, regex_spec
from tests.oracles import all_words, dfa_language_spec, random_trim_dfa

seeds = st.integers(0, 2**32 - 1)


def _random_word(rng, symbols, max_len):
    return "".join(rng.choice(symbols) for _ in range(rng.randint(0, max_len)))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 4))
def test_residual_bits_match_membership_on_random_dfas(seed, max_len):
    rng = random.Random(seed)
    d = random_trim_dfa(rng)
    spec = dfa_language_spec(d)
    w = _random_word(rng, d.alphabet.symbols, 6)
    suffixes = all_words(d.alphabet.symbols, max_len)
    bits = list(residual_bits(spec, w, max_len))
    assert bits == [membership(spec, w + u) for u in suffixes]
    assert bits == [int(d.accepts(w + u)) for u in suffixes]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(builtin_names()), seeds, st.integers(0, 5))
def test_residual_bits_match_membership_on_builtins(name, seed, max_len):
    spec = builtin_language(name)
    symbols = spec.alphabet.symbols
    w = _random_word(random.Random(seed), symbols, 8)
    bits = list(residual_bits(spec, w, max_len))
    assert bits == [membership(spec, w + u) for u in all_words(symbols, max_len)]
    assert all(type(b) is int for b in bits)


def test_residual_bits_preconditions():
    spec = regex_spec("(ab)*", "ab")
    with pytest.raises(InputError):
        residual_bits(spec, "abx", 2)
    with pytest.raises(InputError):
        residual_bits(spec, "ab", -1)
    with pytest.raises(InputError):
        residual_bits(builtin_language("anbn"), "c", 0)


@pytest.mark.parametrize(
    "spec",
    [champernowne_stream().spec, builtin_language("unary_powers_of_two"),
     regex_spec("a(aa)*", "a"), dfa_language_spec(cycle_dfa(5, {1, 3}))],
)
def test_bitstream_grown_in_uneven_steps_matches_one_shot(spec):
    grown = BitStream(spec)
    for n in (0, 1, 2, 7, 8, 30, 31, 64, 129):
        assert grown.prefix(n) == BitStream(spec).prefix(n)
    assert grown.bit(200) == BitStream(spec).bit(200)
    expected = "".join(str(membership(spec, "a" * i)) for i in range(201))
    assert grown.prefix(201) == BitStream(spec).prefix(201) == expected


def test_residual_truncation_reads_the_residual_bits():
    spec = builtin_language("dyck1")
    for w in ("", "a", "aab", "ba"):
        assert residual_truncation(spec, w, 3).bits == tuple(residual_bits(spec, w, 3))


def test_bitstream_validates_linear_work(monkeypatch):
    # a prefix of n bits used to validate one word of each length below n
    checked = []
    original = Alphabet.validate_word

    def counting(self, w):
        checked.append(len(w))
        return original(self, w)

    monkeypatch.setattr(Alphabet, "validate_word", counting)
    n = 2000
    s = BitStream(regex_spec("(aaa)*a", "a"))
    assert s.prefix(n) == "".join("1" if i % 3 == 1 else "0" for i in range(n))
    s.prefix(n + 500)
    assert sum(checked) <= 4 * n


def test_champernowne_stream_prefix_is_the_sequence():
    assert champernowne_stream().prefix(3000) == champernowne_prefix(3000)


def test_unary_builtins_decide_from_the_length(monkeypatch):
    # a unary builtin is handed word lengths, so it never enumerates words
    expected_champernowne = champernowne_prefix(5000)

    def no_words(self, max_len):
        raise AssertionError("a unary builtin enumerated words")

    monkeypatch.setattr(Alphabet, "words", no_words)
    powers = builtin_language("unary_powers_of_two")
    assert champernowne_stream().prefix(5000) == expected_champernowne
    assert BitStream(powers).prefix(5000) == "".join(
        str(int(bin(n).count("1") == 1)) for n in range(5000)
    )
    for n in (0, 1, 2, 3, 4, 5, 63, 64, 65, 1023, 1024, 4999):
        assert membership(powers, "a" * n) == int(n > 0 and n & (n - 1) == 0)
        assert membership(champernowne_stream().spec, "a" * n) == int(expected_champernowne[n])
