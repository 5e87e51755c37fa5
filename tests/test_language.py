import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    ConfigError,
    Dfa,
    DfaSpec,
    InputError,
    LanguageSpec,
    OracleSpec,
    RegexParseError,
    RegexSpec,
    SpecFileError,
    builtin_language,
    builtin_names,
    characteristic_table,
    compile_regex,
    dfa_isomorphic,
    membership,
    minimize_dfa,
    parse_spec_file,
    serialize_spec,
)
from nerode.language import _regex_dfa, presented_dfa
from tests.corpus import REGEX_CORPUS, chain_dfa, regex_spec
from tests.oracles import (
    all_words,
    brute_minimal_dfa,
    dfa_words,
    random_trim_dfa,
    regex_words,
    state_equivalent,
)


def test_alphabet_rejects_duplicates():
    with pytest.raises(InputError):
        Alphabet.of("aba")


def test_alphabet_rejects_empty():
    with pytest.raises(InputError):
        Alphabet.of("")


def test_alphabet_rejects_multichar_symbols():
    with pytest.raises(InputError):
        Alphabet(("ab",))


def test_wordlist_uses_alphabet_order_not_ascii():
    # symbols deliberately in reverse ASCII order
    ba = Alphabet.of("ba")
    assert list(ba.words(2)) == ["", "b", "a", "bb", "ba", "ab", "aa"]


def test_word_count():
    assert Alphabet.of("ab").word_count(3) == 15
    assert Alphabet.of("a").word_count(5) == 6


# --- membership ---------------------------------------------------------


def test_membership_regex():
    spec = regex_spec("(aa)*", "a")
    assert membership(spec, "aa") == 1
    assert membership(spec, "a") == 0
    assert membership(spec, "") == 1


def test_membership_anbn():
    spec = builtin_language("anbn")
    assert membership(spec, "ab") == 1
    assert membership(spec, "ba") == 0
    assert membership(spec, "") == 1
    assert membership(spec, "aabb") == 1
    assert membership(spec, "aab") == 0


def test_membership_rejects_foreign_symbols():
    spec = regex_spec("(aa)*", "a")
    with pytest.raises(InputError):
        membership(spec, "ax")


def test_membership_dyck1():
    spec = builtin_language("dyck1")
    assert [membership(spec, w) for w in ["", "ab", "aabb", "abab", "ba", "aab", "abb"]] == [
        1, 1, 1, 1, 0, 0, 0,
    ]
    # a third symbol is neither bracket, so no word containing it is balanced
    assert membership(LanguageSpec(Alphabet.of("abc"), OracleSpec("dyck1")), "acb") == 0


def test_characteristic_table_matches_membership():
    for spec in (regex_spec("(a|b)*ab", "ab"), builtin_language("anbn")):
        table = characteristic_table(spec, 5)
        for w in all_words("ab", 5):
            assert table[w] == membership(spec, w)


# --- regex compilation ---------------------------------------------------


def test_compile_examples():
    assert compile_regex("(aa)*", Alphabet.of("a")).n_states == 2
    one = compile_regex("a*", Alphabet.of("a"))
    assert one.n_states == 1 and one.finals == frozenset({0})
    assert compile_regex("(a|b)*ab", Alphabet.of("ab")).n_states == 3


@pytest.mark.parametrize("pattern,symbols,size", REGEX_CORPUS)
def test_compile_against_bruteforce_semantics(pattern, symbols, size):
    d = compile_regex(pattern, Alphabet.of(symbols))
    assert d.n_states == size
    assert dfa_words(d, 8) == regex_words(pattern, symbols, 8)


@pytest.mark.parametrize("pattern,symbols,size", REGEX_CORPUS)
def test_compile_result_is_minimal(pattern, symbols, size):
    # all states reachable and pairwise non-equivalent
    d = compile_regex(pattern, Alphabet.of(symbols))
    for s in range(d.n_states):
        for t in range(s + 1, d.n_states):
            assert not state_equivalent(d, s, d, t)


def test_empty_pattern_is_empty_word():
    d = compile_regex("", Alphabet.of("ab"))
    assert dfa_words(d, 3) == {""}


def test_empty_union_branch():
    d = compile_regex("(a|)", Alphabet.of("ab"))
    assert dfa_words(d, 3) == {"", "a"}


def test_parse_error_positions():
    with pytest.raises(RegexParseError) as e:
        compile_regex("(", Alphabet.of("ab"))
    assert e.value.position == 1
    with pytest.raises(RegexParseError) as e:
        compile_regex("a)b", Alphabet.of("ab"))
    assert e.value.position == 1
    with pytest.raises(RegexParseError) as e:
        compile_regex("*a", Alphabet.of("ab"))
    assert e.value.position == 0
    with pytest.raises(RegexParseError) as e:
        compile_regex("axb", Alphabet.of("ab"))
    assert e.value.position == 1


def _pattern_strategy(symbols="ab"):
    base = st.sampled_from(list(symbols))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda t: t[0] + t[1]),
            st.tuples(kids, kids).map(lambda t: f"({t[0]}|{t[1]})"),
            kids.map(lambda p: f"({p})*"),
        ),
        max_leaves=6,
    )


@settings(max_examples=60, deadline=None)
@given(_pattern_strategy())
def test_compile_random_patterns(pattern):
    d = compile_regex(pattern, Alphabet.of("ab"))
    assert dfa_words(d, 5) == regex_words(pattern, "ab", 5)


# --- minimization --------------------------------------------------------


def test_minimize_chain_by_hand_partition():
    # {q0,q2} vs {q1} is already stable under refinement, so two states
    d = minimize_dfa(chain_dfa())
    assert d.n_states == 2
    assert d.initial == 0
    assert d.finals == frozenset({0})
    assert d.rows == ((1,), (0,))


def test_minimize_idempotent_on_corpus():
    for pattern, symbols, _ in REGEX_CORPUS:
        d = compile_regex(pattern, Alphabet.of(symbols))
        assert minimize_dfa(d) == d


def test_minimize_drops_unreachable_state():
    a = Alphabet.of("a")
    d = Dfa(a, 3, 0, frozenset({0, 2}), ((0,), (2,), (1,)))  # states 1,2 unreachable
    m = minimize_dfa(d)
    assert m.n_states == 1
    assert dfa_words(m, 4) == dfa_words(d, 4)


def test_minimize_language_preserved_to_length_ten():
    for d in (chain_dfa(), compile_regex("(aa|bb)*", Alphabet.of("ab"))):
        m = minimize_dfa(d)
        assert dfa_words(m, 10) == dfa_words(d, 10)
        assert minimize_dfa(m) == m


@st.composite
def untrimmed_dfas(draw):
    """Complete DFAs with 1-12 states over 1-3 letters and any initial state,
    so unreachable states are common; finals may be none or all states."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    state = st.integers(0, n - 1)
    rows = tuple(tuple(draw(state) for _ in range(k)) for _ in range(n))
    finals = frozenset(s for s in range(n) if draw(st.booleans()))
    return Dfa(Alphabet.of("abc"[:k]), n, draw(state), finals, rows)


@settings(max_examples=300, deadline=None)
@given(untrimmed_dfas())
def test_minimize_matches_brute_force_minimizer(d):
    assert minimize_dfa(d) == brute_minimal_dfa(d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minimize_preserves_language(data):
    import random

    seed = data.draw(st.integers(0, 2**32 - 1))
    d = random_trim_dfa(random.Random(seed))
    m = minimize_dfa(d)
    assert m.n_states <= d.n_states
    assert dfa_words(m, 6) == dfa_words(d, 6)
    assert minimize_dfa(m) == m


# --- builtins -------------------------------------------------------------


def test_builtin_names_registry():
    assert builtin_names() == (
        "anbn", "champernowne_unary", "dyck1", "even_length", "unary_powers_of_two",
    )


def test_builtin_unknown_name():
    with pytest.raises(ConfigError):
        builtin_language("nosuch")


def test_builtin_rejects_params():
    with pytest.raises(ConfigError):
        builtin_language("anbn", (3,))


def test_builtin_oracles_total_and_deterministic():
    for name in builtin_names():
        spec = builtin_language(name)
        words = (
            [spec.alphabet.symbols[0] * n for n in range(21)]
            if len(spec.alphabet) == 1
            else all_words("ab", 7) + ["ab" * 10, "a" * 20, "b" * 20]
        )
        for w in words:
            first = membership(spec, w)
            assert first in (0, 1)
            assert membership(spec, w) == first


def test_unary_powers_of_two():
    spec = builtin_language("unary_powers_of_two")
    accepted = {n for n in range(20) if membership(spec, "a" * n)}
    assert accepted == {1, 2, 4, 8, 16}


def test_even_length_builtin():
    spec = builtin_language("even_length")
    assert membership(spec, "") == 1
    assert membership(spec, "ab") == 1
    assert membership(spec, "aba") == 0


def test_unary_builtin_rejects_binary_alphabet():
    with pytest.raises(ConfigError):
        LanguageSpec(Alphabet.of("ab"), OracleSpec("champernowne_unary"))


def test_anbn_needs_ab_symbols():
    with pytest.raises(ConfigError):
        LanguageSpec(Alphabet.of("xy"), OracleSpec("anbn"))


# --- spec files -----------------------------------------------------------


def test_parse_regex_spec():
    spec = parse_spec_file("alphabet: ab\nregex: (a|b)*ab\n")
    assert spec.presentation == RegexSpec("(a|b)*ab")
    assert spec.alphabet == Alphabet.of("ab")


def test_parse_builtin_spec():
    spec = parse_spec_file("alphabet: ab\nbuiltin: anbn\n")
    assert spec.presentation == OracleSpec("anbn", ())


def test_parse_dfa_spec():
    text = "alphabet: a\ndfa: 3 0 0,2\n1\n2\n1\n"
    spec = parse_spec_file(text)
    assert isinstance(spec.presentation, DfaSpec)
    assert spec.presentation.dfa == chain_dfa()


def test_parse_error_line_numbers():
    with pytest.raises(SpecFileError) as e:
        parse_spec_file("alphabet: ab\nregex: (\n")
    assert e.value.line == 2
    with pytest.raises(SpecFileError) as e:
        parse_spec_file("regex: a*\n")
    assert e.value.line == 1
    with pytest.raises(SpecFileError) as e:
        parse_spec_file("alphabet: ab\ndfa: 2 0 0\n0 0\n")
    assert e.value.line == 3
    with pytest.raises(SpecFileError):
        parse_spec_file("")
    with pytest.raises(SpecFileError) as e:
        parse_spec_file("alphabet: ab\nnfa: nope\n")
    assert e.value.line == 2
    for text, message in [
        ("alphabet: ab\nbuiltin: anbn x\n", "builtin parameters must be integers (line 2)"),
        ("alphabet: ab\ndfa: 1 0 0\n0\n", "expected 2 targets (one per symbol), got 1 (line 3)"),
        ("alphabet: ab\ndfa: 1 0 0\n0 x\n", "transition targets must be integers (line 3)"),
        ("alphabet: ab\nregex: a\nb\n", "unexpected extra line (line 3)"),
        ("alphabet: ab\nbuiltin: anbn\nb\n", "unexpected extra line (line 3)"),
        ("alphabet: ab\nbuiltin:\n", "builtin needs a name (line 2)"),
        ("alphabet: ab\n", "expected a presentation line after the alphabet (line 1)"),
        ("alphabet: aa\nregex: a\n", "duplicate symbols in alphabet 'aa' (line 1)"),
        ("alphabet: ab\ndfa: 1 0\n", "expected 'dfa: <n> <initial> <finals csv|->' (line 2)"),
    ]:
        with pytest.raises(SpecFileError) as e:
            parse_spec_file(text)
        assert str(e.value) == message


def test_parse_unknown_builtin_is_config_error():
    with pytest.raises(ConfigError):
        parse_spec_file("alphabet: ab\nbuiltin: nosuch\n")


@pytest.mark.parametrize(
    "text",
    [
        "alphabet: ab\nregex: (a|b)*ab\n",
        "alphabet: ab\nbuiltin: anbn\n",
        "alphabet: a\ndfa: 3 0 0,2\n1\n2\n1\n",
        "alphabet: a\ndfa: 1 0 -\n0\n",
    ],
)
def test_spec_round_trip(text):
    spec = parse_spec_file(text)
    assert parse_spec_file(serialize_spec(spec)) == spec


def test_dfa_validation():
    a = Alphabet.of("ab")
    with pytest.raises(InputError):
        Dfa(a, 2, 5, frozenset(), ((0, 0), (1, 1)))
    with pytest.raises(InputError):
        Dfa(a, 2, 0, frozenset({7}), ((0, 0), (1, 1)))
    with pytest.raises(InputError):
        Dfa(a, 2, 0, frozenset(), ((0,), (1, 1)))
    with pytest.raises(InputError):
        Dfa(a, 2, 0, frozenset(), ((0, 3), (1, 1)))
    with pytest.raises(InputError, match="at least one state"):
        Dfa(a, 0, 0, frozenset(), ())
    with pytest.raises(InputError, match="expected 2 transition rows, got 1"):
        Dfa(a, 2, 0, frozenset(), ((0, 0),))


def test_dfa_isomorphic_ignores_numbering():
    a = Alphabet.of("a")
    d1 = Dfa(a, 2, 0, frozenset({0}), ((1,), (0,)))
    d2 = Dfa(a, 2, 1, frozenset({1}), ((1,), (0,)))
    assert dfa_isomorphic(d1, d2)
    d3 = Dfa(a, 2, 0, frozenset({1}), ((1,), (0,)))
    assert not dfa_isomorphic(d1, d3)


# --- input limits ---------------------------------------------------------


def test_dfa_header_rejects_empty_final_field():
    for finals in ("0,,1", "0,", ",1", ","):
        with pytest.raises(SpecFileError, match="bad dfa header"):
            parse_spec_file(f"alphabet: a\ndfa: 2 0 {finals}\n1\n0\n")
    assert parse_spec_file("alphabet: a\ndfa: 2 0 0,1\n1\n0\n").presentation.dfa.finals == {0, 1}


def test_deepest_allowed_nesting_compiles():
    from nerode.regex import MAX_NESTING

    n = MAX_NESTING
    for pattern in (
        "(" * n + "a" + ")" * n,
        "(" * n + "a" + "b*|a)" * n,
        "(a" * n + ")*" * n,
        "(" * n + "a" + ")*b" * n,
    ):
        d = compile_regex(pattern, Alphabet.of("ab"))
        assert dfa_words(d, 4) == regex_words(pattern, "ab", 4)
    with pytest.raises(RegexParseError, match="nested deeper than"):
        compile_regex("(" * (n + 1) + "a" + ")" * (n + 1), Alphabet.of("ab"))


def test_regex_cache_is_bounded_and_shares_its_dfas():
    ab = Alphabet.of("ab")
    for i in range(300):  # 300 distinct patterns: the binary numerals over a, b
        presented_dfa(LanguageSpec(ab, RegexSpec(format(i, "b").translate({48: "a", 49: "b"}))))
    info = _regex_dfa.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256
    first = presented_dfa(LanguageSpec(ab, RegexSpec("(a|b)*ab")))
    assert presented_dfa(LanguageSpec(ab, RegexSpec("(a|b)*ab"))) is first
