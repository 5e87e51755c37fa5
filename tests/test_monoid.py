import copy
import itertools
import pickle
import random
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    Dfa,
    InputError,
    ResourceError,
    UnsupportedPresentationError,
    builtin_language,
    compose,
    context_classes,
    growth_profile,
    idempotent_power,
    membership,
    minimal_dfa,
    monoid_from_generators,
    syntactic_monoid,
    transition_monoid,
)
from nerode.monoid import _typecode
from tests.corpus import (
    REGEX_CORPUS,
    chain_dfa,
    cycle_dfa,
    full_language_spec,
    regex_spec,
)
from tests.oracles import all_words, context_class_count, random_trim_dfa, word_actions
from tests.test_golden import BIG


def corpus_monoids():
    monoids = [transition_monoid(chain_dfa()), transition_monoid(cycle_dfa(4, {0, 2}))]
    for pattern, symbols, _ in REGEX_CORPUS:
        monoids.append(syntactic_monoid(regex_spec(pattern, symbols))[0])
    return monoids


# --- transition monoids -----------------------------------------------------


def test_transition_monoid_parity():
    m = transition_monoid(minimal_dfa(regex_spec("(aa)*", "a")))
    assert m.order == 2
    assert m.elements == ((0, 1), (1, 0))
    assert m.witnesses == ("", "a")


def test_transition_monoid_chain_has_a3_eq_a():
    m = transition_monoid(chain_dfa())
    assert m.order == 3
    a = m.generators["a"]
    aa = m.mul(a, a)
    assert m.mul(aa, a) == a  # a^3 = a
    assert aa != 0


def test_transition_monoid_ends_with_ab():
    m = transition_monoid(minimal_dfa(regex_spec("(a|b)*ab", "ab")))
    assert m.order == 5
    constants = [i for i, e in enumerate(m.elements) if len(set(e)) == 1]
    assert len(constants) == 3
    assert 0 not in constants


def test_transition_monoid_trivial():
    m = transition_monoid(minimal_dfa(full_language_spec("a")))
    assert m.order == 1


@pytest.mark.parametrize("pattern,symbols,size", REGEX_CORPUS[:6])
def test_monoid_elements_match_bruteforce_actions(pattern, symbols, size):
    d = minimal_dfa(regex_spec(pattern, symbols))
    m = transition_monoid(d)
    # every word action of length <= order appears, and nothing else does
    assert set(m.elements) == word_actions(d, m.order)


def test_monoid_identity_and_associativity():
    for m in corpus_monoids():
        assert m.order <= 200
        rng = range(m.order)
        assert all(m.table[0][j] == j == m.table[j][0] for j in rng)
        for i, j, k in itertools.product(rng, repeat=3):
            assert m.table[i][m.table[j][k]] == m.table[m.table[i][j]][k]


def test_monoid_witness_soundness():
    for m in corpus_monoids():
        for i, w in enumerate(m.witnesses):
            assert m.evaluate_word(w) == i
    with pytest.raises(InputError, match="^symbol 'b' has no generator in this monoid$"):
        transition_monoid(chain_dfa()).evaluate_word("b")


def test_monoid_table_matches_composition():
    m = transition_monoid(chain_dfa())
    for i, j in itertools.product(range(m.order), repeat=2):
        assert m.elements[m.table[i][j]] == compose(m.elements[i], m.elements[j])


def test_monoid_cap_resource_error():
    with pytest.raises(ResourceError):
        transition_monoid(cycle_dfa(7, {0}), cap=3)


def test_monoid_cap_env_override(monkeypatch):
    monkeypatch.setenv("NERODE_MONOID_CAP", "2")
    with pytest.raises(ResourceError):
        transition_monoid(cycle_dfa(7, {0}))
    monkeypatch.setenv("NERODE_MONOID_CAP", "50")
    assert transition_monoid(cycle_dfa(7, {0})).order == 7


def test_monoid_generator_validation():
    # an image equal to the state count is the first one out of range
    for image in (5, 2):
        with pytest.raises(InputError, match="generator for 'a' is not a transformation of 2 states"):
            monoid_from_generators(2, {"a": (0, image)})


# --- compact Cayley table ---------------------------------------------------


@pytest.mark.parametrize("order,code", [(1, "B"), (256, "B"), (257, "H"), (65_536, "H"), (65_537, "L")])
def test_table_typecode_is_the_smallest_that_holds_every_index(order, code):
    # the helper is tested directly: an order above 65 536 means more than 4·10⁹ cells
    assert _typecode(order) == code
    assert array(code, [order - 1])[0] == order - 1
    if code != "B":
        with pytest.raises(OverflowError):
            array("B" if code == "H" else "H", [order - 1])


@pytest.mark.parametrize("n,code", [(256, "B"), (257, "H")])
def test_cycle_monoid_rows_use_the_smallest_typecode(n, code):
    m = transition_monoid(cycle_dfa(n, {0}))
    assert m.order == n
    assert {row.typecode for row in m.table} == {code}
    assert all(m.table[i][j] == (i + j) % n for i in range(n) for j in range(n))


def big_monoid():
    symbols, n, initial, finals, rows = BIG
    finals = frozenset(map(int, finals.split(",")))
    return transition_monoid(Dfa(Alphabet.of(symbols), n, initial, finals, rows))


def test_monoid_survives_pickle_and_deepcopy():
    for m in [*corpus_monoids(), big_monoid()]:
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert twin == m
            assert [row.typecode for row in twin.table] == [row.typecode for row in m.table]


def test_table_takes_about_two_bytes_per_cell():
    m = big_monoid()
    order = m.order
    assert order == 439
    # tuple rows of ints take 8 bytes of pointer per cell and fail this at 1 559 328 bytes
    assert sum(map(sys.getsizeof, m.table)) <= 2 * order**2 + 128 * order


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_table_matches_compose_on_random_dfas(seed):
    m = transition_monoid(random_trim_dfa(random.Random(seed), max_states=4))
    assert {row.typecode for row in m.table} == {_typecode(m.order)}
    for i, j in itertools.product(range(m.order), repeat=2):
        assert m.elements[m.table[i][j]] == compose(m.elements[i], m.elements[j])


# --- syntactic monoids ------------------------------------------------------


def test_syntactic_parity():
    m, finals = syntactic_monoid(regex_spec("(aa)*", "a"))
    assert m.order == 2
    assert finals == frozenset({0})


def test_syntactic_full_unary():
    m, finals = syntactic_monoid(regex_spec("a*", "a"))
    assert m.order == 1
    assert finals == frozenset({0})


def test_syntactic_ends_with_ab():
    m, finals = syntactic_monoid(regex_spec("(a|b)*ab", "ab"))
    assert m.order == 5
    assert len(finals) == 1
    (f,) = finals
    assert len(set(m.elements[f])) == 1  # a single constant map


def test_syntactic_rejects_oracle_presentations():
    with pytest.raises(UnsupportedPresentationError):
        syntactic_monoid(builtin_language("anbn"))


@pytest.mark.parametrize("pattern,symbols,size", REGEX_CORPUS)
def test_final_elements_recognize_language(pattern, symbols, size):
    spec = regex_spec(pattern, symbols)
    m, finals = syntactic_monoid(spec)
    for w in all_words(symbols, 10):
        assert (m.evaluate_word(w) in finals) == bool(membership(spec, w))


# --- idempotents ------------------------------------------------------------


def test_idempotent_power_chain():
    m = transition_monoid(chain_dfa())
    a = m.generators["a"]
    e = idempotent_power(m, a)
    assert e == m.mul(a, a)  # a^2 is the idempotent, and it is not the identity
    assert e != 0
    assert m.mul(e, e) == e


def test_idempotent_power_identity():
    m = transition_monoid(chain_dfa())
    assert idempotent_power(m, 0) == 0


def test_idempotent_power_swap():
    m, _ = syntactic_monoid(regex_spec("(aa)*", "a"))
    swap = m.generators["a"]
    assert idempotent_power(m, swap) == 0  # swap^2 = id


def test_idempotent_power_is_least_power():
    for m in corpus_monoids():
        for s in range(m.order):
            e = idempotent_power(m, s)
            assert m.mul(e, e) == e
            # no earlier power of s is idempotent
            p = s
            while p != e:
                assert m.mul(p, p) != p
                p = m.mul(p, s)


def test_idempotent_power_range_check():
    m = transition_monoid(chain_dfa())
    for s in (17, -1, m.order):
        with pytest.raises(InputError, match=rf"^element {s} out of range 0\.\.{m.order - 1}$"):
            idempotent_power(m, s)


# --- context classes --------------------------------------------------------


def test_context_classes_parity():
    t = context_classes(regex_spec("(aa)*", "a"), 1, 1, 4)
    assert t.class_count == 2
    assert t.representatives == ("", "a")


def test_context_classes_full_language():
    t = context_classes(full_language_spec("ab"), 2, 2, 3)
    assert t.class_count == 1


def test_context_classes_anbn():
    t = context_classes(builtin_language("anbn"), 1, 1, 3)
    assert t.class_count == 4
    assert t.representatives == ("", "a", "b", "aa")


def test_context_classes_members_share_signature():
    t = context_classes(builtin_language("anbn"), 1, 1, 4)
    spec = builtin_language("anbn")
    for ci, members in enumerate(t.members):
        for u in members:
            sig = tuple(
                membership(spec, x + u + y)
                for x in all_words("ab", 1)
                for y in all_words("ab", 1)
            )
            assert sig == t.signatures[ci]


def test_context_classes_match_bruteforce_counts():
    for name in ("anbn", "dyck1", "even_length"):
        spec = builtin_language(name)
        for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            expected = context_class_count(
                lambda w: membership(spec, w), spec.alphabet.symbols, m, n, 4
            )
            assert context_classes(spec, m, n, 4).class_count == expected


def test_context_refinement():
    for spec in (builtin_language("anbn"), builtin_language("dyck1"), regex_spec("(ab)*", "ab")):
        for k in (1, 2):
            fine = context_classes(spec, k + 1, k + 1, 4)
            coarse = context_classes(spec, k, k, 4)
            for members in fine.members:
                assert len({coarse.class_of(u) for u in members}) == 1


def test_context_lower_bound_consistency():
    # with contexts wide enough to access and distinguish every state,
    # context classes = distinct word actions up to the same length
    for pattern, symbols, size in REGEX_CORPUS:
        spec = regex_spec(pattern, symbols)
        d = minimal_dfa(spec)
        n = d.n_states
        bound = 2 * n
        t = context_classes(spec, n, n, bound)
        assert t.class_count == len(word_actions(d, bound))


def test_context_class_of_unknown_word():
    t = context_classes(regex_spec("(aa)*", "a"), 1, 1, 2)
    with pytest.raises(InputError):
        t.class_of("aaaaaa")


# --- growth profiles --------------------------------------------------------


def test_growth_parity_bounded():
    g = growth_profile(regex_spec("(aa)*", "a"), 3, 6)
    assert g.counts == (2, 2, 2)
    assert g.verdict == "bounded (rational-consistent)"


def test_growth_full_language():
    g = growth_profile(full_language_spec("ab"), 2, 4)
    assert g.counts == (1, 1)
    assert g.bounded is True


def test_growth_anbn_growing():
    g = growth_profile(builtin_language("anbn"), 3, 8)
    assert g.counts == (4, 7, 11)
    assert list(g.counts) == sorted(g.counts)
    assert g.counts[0] < g.counts[1] < g.counts[2]
    assert g.verdict == "growing"


def test_growth_single_point_inconclusive():
    g = growth_profile(regex_spec("(aa)*", "a"), 1, 4)
    assert g.bounded is None
    assert g.verdict == "inconclusive"


def test_growth_preconditions():
    with pytest.raises(InputError):
        growth_profile(builtin_language("anbn"), 0, 4)
    with pytest.raises(InputError):
        growth_profile(builtin_language("anbn"), 3, 2)


@pytest.mark.parametrize("cap", [0, -5])
def test_monoid_cap_below_one_rejected(cap, monkeypatch):
    with pytest.raises(InputError, match="cap argument"):
        transition_monoid(chain_dfa(), cap=cap)
    monkeypatch.setenv("NERODE_MONOID_CAP", str(cap))
    with pytest.raises(InputError, match="NERODE_MONOID_CAP"):
        transition_monoid(chain_dfa())


def test_monoid_cap_of_exact_order_is_enough():
    assert transition_monoid(cycle_dfa(7, {0}), cap=7).order == 7
    with pytest.raises(ResourceError, match="cap of 6 elements"):
        transition_monoid(cycle_dfa(7, {0}), cap=6)
