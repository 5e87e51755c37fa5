import pytest

from nerode import (
    Alphabet,
    DepthExhaustedError,
    InputError,
    TruncatedPoint,
    builtin_language,
    compile_regex,
    dfa_isomorphic,
    is_strongly_connected,
    membership,
    minimize_dfa,
    nerode_classes,
    orbit_closure_report,
    point_transition,
    residual_truncation,
    stabilization_check,
    topology,
)
from tests.corpus import (
    REGEX_CORPUS,
    empty_language_spec,
    full_language_spec,
    regex_spec,
)
from tests.oracles import all_words, residual_assignment, residual_class_count


# --- truncated points -----------------------------------------------------


def test_residual_truncation_examples():
    # bits are in length-lex order: eps, a, (b, aa, ab, ba, bb ...)
    aa = regex_spec("(aa)*", "a")
    assert residual_truncation(aa, "a", 1).bits == (0, 1)
    anbn = builtin_language("anbn")
    assert residual_truncation(anbn, "", 1).bits == (1, 0, 0)
    empty = empty_language_spec("ab")
    assert residual_truncation(empty, "ba", 2).bits == (0,) * 7


def test_point_value_lookup():
    anbn = builtin_language("anbn")
    p = residual_truncation(anbn, "", 2)
    assert p.value("") == 1
    assert p.value("ab") == 1
    assert p.value("aa") == 0
    with pytest.raises(InputError):
        p.value("aaa")


def test_point_table_size_validation():
    with pytest.raises(InputError):
        TruncatedPoint(Alphabet.of("ab"), 1, (1, 0))
    with pytest.raises(InputError):
        TruncatedPoint(Alphabet.of("a"), 1, (1, 2))


def test_point_transition_drops_one_level():
    aa = regex_spec("(aa)*", "a")
    p = residual_truncation(aa, "", 1)  # (1, 0)
    q = point_transition(p, "a")
    assert q.depth == 0 and q.bits == (0,)


def test_point_transition_zero_point_fixed():
    empty = empty_language_spec("ab")
    p = residual_truncation(empty, "", 3)
    q = point_transition(p, "a")
    assert q.bits == (0,) * 7


def test_point_transition_matches_oracle_definition():
    anbn = builtin_language("anbn")
    assert point_transition(residual_truncation(anbn, "", 2), "a") == residual_truncation(
        anbn, "a", 1
    )


def test_point_transition_depth_zero_errors():
    aa = regex_spec("(aa)*", "a")
    with pytest.raises(DepthExhaustedError):
        point_transition(residual_truncation(aa, "", 0), "a")


@pytest.mark.parametrize("spec_name", ["anbn", "dyck1"])
def test_action_compatibility(spec_name):
    spec = builtin_language(spec_name)
    for d in range(1, 5):
        for w in all_words("ab", 6):
            p = residual_truncation(spec, w, d)
            for ch in "ab":
                assert point_transition(p, ch) == residual_truncation(spec, w + ch, d - 1)


def test_depth_zero_acceptance_bit():
    for spec in (regex_spec("(a|b)*ab", "ab"), builtin_language("anbn")):
        for w in all_words("ab", 5):
            assert residual_truncation(spec, w, 0).bits[0] == membership(spec, w)


# --- nerode classes -------------------------------------------------------


def test_nerode_anbn_counts():
    anbn = builtin_language("anbn")
    assert len(nerode_classes(anbn, 1, 4).classes) == 3
    # the post-b residual classes split off from depth 2 onward, giving
    # five classes (not four): eps, a, aa, the accept-only class of ab, dead
    assert len(nerode_classes(anbn, 2, 6).classes) == 5


def test_nerode_parity_classes():
    aa = regex_spec("(aa)*", "a")
    a = nerode_classes(aa, 1, 4)
    assert len(a.classes) == 2
    assert a.witnesses == ("", "a")
    assert sorted(a.accepting) == [0]


@pytest.mark.parametrize("name", ["anbn", "dyck1", "even_length"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_nerode_counts_match_bruteforce(name, depth):
    spec = builtin_language(name)
    oracle = residual_class_count(
        lambda w: membership(spec, w), spec.alphabet.symbols, depth, 6
    )
    assert len(nerode_classes(spec, depth, 6).classes) == oracle


def test_nerode_witnesses_are_lengthlex_first_and_sound():
    anbn = builtin_language("anbn")
    a = nerode_classes(anbn, 2, 6)
    seen = set()
    for ci, w in enumerate(a.witnesses):
        assert residual_truncation(anbn, w, 2) == a.classes[ci]
        assert a.classes[ci] not in seen
        seen.add(a.classes[ci])
    lengths = [len(w) for w in a.witnesses]
    # first witnesses appear in enumeration order
    assert lengths == sorted(lengths)


def test_nerode_inconsistent_transition_flagged():
    # at depth 1 the class of eps also contains ab, and eps.a, ab.a land in
    # different classes, so the a-transition out of class 0 is unverified
    anbn = builtin_language("anbn")
    a = nerode_classes(anbn, 1, 4)
    tr = a.step(0, "a")
    assert tr.target == 1 and not tr.consistent
    assert a.step(1, "b").consistent


def test_nerode_accepting_set_rule():
    anbn = builtin_language("anbn")
    a = nerode_classes(anbn, 2, 6)
    for ci, p in enumerate(a.classes):
        assert (ci in a.accepting) == (p.bits[0] == 1)


def test_nerode_refinement_across_depths():
    for spec in (builtin_language("anbn"), builtin_language("dyck1"), regex_spec("(ab)*", "ab")):
        for d in range(0, 4):
            fine = residual_assignment(
                lambda w: membership(spec, w), spec.alphabet.symbols, d + 1, 5
            )
            coarse = residual_assignment(
                lambda w: membership(spec, w), spec.alphabet.symbols, d, 5
            )
            blocks = {}
            for w, sig in fine.items():
                blocks.setdefault(sig, set()).add(coarse[w])
            assert all(len(v) == 1 for v in blocks.values())


# --- stabilization --------------------------------------------------------


def test_stabilization_parity():
    aa = regex_spec("(aa)*", "a")
    v = stabilization_check(aa, 1, 6)
    assert v.stabilized and v.size == 2
    assert dfa_isomorphic(v.proposed, minimize_dfa(compile_regex("(aa)*", Alphabet.of("a"))))


def test_stabilization_full_language():
    v = stabilization_check(full_language_spec("ab"), 1, 4)
    assert v.stabilized and v.size == 1


def test_stabilization_anbn_growing():
    anbn = builtin_language("anbn")
    v = stabilization_check(anbn, 3, 8)
    assert not v.stabilized
    assert v.size is None and v.proposed is None
    # brute-force signature counts at depths 3 and 4 (the spine classes
    # a^0..a^d plus the dead class plus the accept-only and b^j classes)
    assert v.counts == (7, 9)


def test_stabilization_horizon_precondition():
    with pytest.raises(InputError):
        stabilization_check(builtin_language("anbn"), 3, 3)


def test_stabilization_rejects_negative_depth_before_building_chi(monkeypatch):
    def no_chi(spec, max_len):
        raise AssertionError("χ was built for a negative depth")

    monkeypatch.setattr(topology, "chi_bits", no_chi)
    with pytest.raises(InputError, match="^depth must be non-negative$"):
        stabilization_check(builtin_language("anbn"), -1, 5)


@pytest.mark.parametrize("pattern,symbols,size", REGEX_CORPUS)
def test_rational_specs_stabilize_to_minimal(pattern, symbols, size):
    spec = regex_spec(pattern, symbols)
    minimal = minimize_dfa(compile_regex(pattern, Alphabet.of(symbols)))
    for d in range(1, 9):
        v = stabilization_check(spec, d, d + 6)
        if v.stabilized:
            assert v.size == minimal.n_states
            assert dfa_isomorphic(v.proposed, minimal)
            break
    else:
        pytest.fail(f"{pattern} never stabilized")


def test_even_length_oracle_stabilizes():
    v = stabilization_check(builtin_language("even_length"), 1, 5)
    assert v.stabilized and v.size == 2


# --- closure reports ------------------------------------------------------


def test_closure_parity_patterns_recurrent():
    aa = regex_spec("(aa)*", "a")
    r = orbit_closure_report(aa, 2, 10)
    assert len(r.patterns) == 2
    assert all(p.recurrent for p in r.patterns)
    assert [p.point.bit_string() for p in r.patterns] == ["101", "010"]


def test_closure_singleton_transients():
    single = regex_spec("a", "a")
    r = orbit_closure_report(single, 1, 5)
    assert [(p.point.bit_string(), p.recurrent) for p in r.patterns] == [
        ("01", False),
        ("10", False),
        ("00", True),
    ]


def test_closure_empty_language():
    r = orbit_closure_report(empty_language_spec("a"), 1, 5)
    assert len(r.patterns) == 1
    assert r.patterns[0].point.bits == (0, 0)
    assert r.patterns[0].recurrent


def test_closure_counts_sum_to_enumerated_words():
    anbn = builtin_language("anbn")
    r = orbit_closure_report(anbn, 2, 6)
    assert sum(p.count for p in r.patterns) == anbn.alphabet.word_count(6)


def test_closure_counts_monotone_in_horizon():
    for spec in (regex_spec("(aa)*", "a"), builtin_language("anbn")):
        small = {p.point: p.count for p in orbit_closure_report(spec, 2, 6).patterns}
        large = {p.point: p.count for p in orbit_closure_report(spec, 2, 8).patterns}
        for point, count in small.items():
            assert large[point] >= count


def test_closure_first_last_lengths():
    aa = regex_spec("(aa)*", "a")
    r = orbit_closure_report(aa, 2, 10)
    even, odd = r.patterns
    assert (even.first_length, even.last_length, even.count) == (0, 10, 6)
    assert (odd.first_length, odd.last_length, odd.count) == (1, 9, 5)


# --- strong connectivity ---------------------------------------------------


def test_strongly_connected_examples():
    a = Alphabet.of("a")
    ab = Alphabet.of("ab")
    assert is_strongly_connected(minimize_dfa(compile_regex("(aa)*", a)))
    assert is_strongly_connected(minimize_dfa(compile_regex("(a|b)*ab", ab)))
    assert not is_strongly_connected(minimize_dfa(compile_regex("a(a|b)*", ab)))
