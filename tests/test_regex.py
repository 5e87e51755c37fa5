"""The one-pass regex parser against the recursive reference parser, and the
compile path's direct hand-off to refinement against full minimization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    DfaSpec,
    LanguageSpec,
    compile_regex,
    minimal_dfa,
    minimize_dfa,
    presented_dfa,
)
from nerode.errors import RegexParseError
from nerode.regex import MAX_NESTING, parse_pattern

from tests.corpus import REGEX_CORPUS, chain_dfa, regex_corpus_specs
from tests.oracles import brute_minimal_dfa, dfa_words, reference_parse_pattern, regex_words


def _outcome(parse, pattern, alphabet):
    """The parse, or the error's message and position."""
    try:
        return parse(pattern, alphabet)
    except RegexParseError as e:
        return str(e), e.position


def _assert_parsers_agree(pattern, symbols):
    a = Alphabet.of(symbols)
    assert _outcome(parse_pattern, pattern, a) == _outcome(reference_parse_pattern, pattern, a)


# 'c' is outside the alphabet; in the second alphabet '(' and '*' are also
# symbols, which must keep their operator meaning
@pytest.mark.parametrize("symbols", ["ab", "ab(*"])
@settings(max_examples=400, deadline=None)
@given(pattern=st.text(alphabet="ab()|*c", max_size=14))
def test_parser_matches_recursive_reference(symbols, pattern):
    _assert_parsers_agree(pattern, symbols)


def _nested(d):
    return [
        "(" * d + "a" + ")" * d,
        "(" * d + "a" + "b*|a)" * d,
        "(a" * d + ")*" * d,
        "(" * d + "a" + ")*b" * d,
        "(" * d + ")" * d,
        "(" * d,
        "(" * d + "a" + ")" * (d + 1),
        "(" * d + "*" + ")" * d,
        "(" * d + "x" + ")" * d,
    ]


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
def test_parser_matches_reference_at_the_nesting_limit(depth):
    for pattern in _nested(depth):
        _assert_parsers_agree(pattern, "ab")


def random_pattern(rng, symbols, leaves):
    """A random pattern with the given number of symbol occurrences (or
    empty words); unions are parenthesised, so concatenation is plain."""
    if leaves == 1:
        leaf = rng.choice(symbols + "_")
        return "" if leaf == "_" else leaf + "*" * (rng.random() < 0.2)
    left = rng.randint(1, leaves - 1)
    x = random_pattern(rng, symbols, left)
    y = random_pattern(rng, symbols, leaves - left)
    r = rng.random()
    if r < 0.45:
        return x + y
    if r < 0.8:
        return f"({x}|{y})"
    return f"({x}{y})*"


def _seeded_patterns():
    out = [(p, s) for p, s, _ in REGEX_CORPUS]
    for seed in range(150):
        rng = random.Random(seed)
        symbols = rng.choice(["a", "ab", "abc"])
        out.append((random_pattern(rng, symbols, rng.randint(1, 10)), symbols))
    return out


@pytest.mark.parametrize("pattern,symbols", _seeded_patterns())
def test_compiled_dfa_is_already_canonical_and_minimal(pattern, symbols):
    d = compile_regex(pattern, Alphabet.of(symbols))
    assert d == minimize_dfa(d)
    assert d == brute_minimal_dfa(d)
    assert dfa_words(d, 6) == regex_words(pattern, symbols, 6)


def test_minimal_dfa_of_a_regex_is_its_compiled_dfa():
    for spec in regex_corpus_specs():
        assert minimal_dfa(spec) is presented_dfa(spec)


def test_minimal_dfa_of_a_dfa_spec_minimizes_it():
    d = chain_dfa()
    m = minimal_dfa(LanguageSpec(d.alphabet, DfaSpec(d)))
    assert m == minimize_dfa(d) and m.n_states == 2

