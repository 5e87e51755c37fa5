import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    AutomatonMorphism,
    Dfa,
    IllDefinedHomError,
    InputError,
    LanguageSpec,
    OracleSpec,
    RecognitionError,
    RecognitionMismatchError,
    ResourceError,
    TrimnessError,
    UnsupportedPresentationError,
    builtin_language,
    check_morphism,
    induced_hom,
    minimal_monoid_hom,
    minimization_morphism,
    monoid_from_generators,
    nerode_classes,
    syntactic_monoid,
    transition_monoid,
    verify_recognition,
)
from nerode import language, recognition
from nerode.dfa import product_mismatches
from tests.corpus import chain_dfa, cycle_dfa, empty_language_spec, regex_spec
from tests.oracles import (
    all_words,
    brute_recognition_violations,
    dfa_language_spec,
    dfa_words,
    random_trim_dfa,
    residual_matching_morphism,
)


# --- minimization morphism --------------------------------------------------


def test_chain_morphism_collapses_even_states():
    phi = minimization_morphism(chain_dfa(), regex_spec("(aa)*", "a"))
    assert phi.mapping == (0, 1, 0)
    assert phi.target.n_states == 2
    assert check_morphism(phi).passed


def test_morphism_from_minimal_is_bijection():
    spec = regex_spec("(aa)*", "a")
    from nerode import minimal_dfa

    d = minimal_dfa(spec)
    phi = minimization_morphism(d, spec)
    assert phi.mapping == tuple(range(d.n_states))


def test_morphism_requires_trim_source():
    a = Alphabet.of("a")
    d = Dfa(a, 3, 0, frozenset({0}), ((0,), (2,), (1,)))
    with pytest.raises(TrimnessError) as e:
        minimization_morphism(d, regex_spec("a*", "a"))
    assert e.value.states == (1, 2)


def test_morphism_detects_language_mismatch_exactly():
    with pytest.raises(RecognitionMismatchError) as e:
        minimization_morphism(chain_dfa(), regex_spec("a*", "a"))
    assert e.value.witness == "a"


@pytest.mark.parametrize("spec", [regex_spec("(aa)*", "a"), builtin_language("even_length")])
def test_morphism_rejects_negative_bound_for_every_spec(spec):
    with pytest.raises(InputError, match="word length bound must be non-negative"):
        minimization_morphism(chain_dfa(), spec, bound=-1)


def test_morphism_detects_oracle_mismatch_by_bounded_scan():
    # chain accepts even-length unary words; powers-of-two oracle differs at 'a'... no:
    # chain accepts "" (length 0) but the oracle rejects it
    with pytest.raises(RecognitionMismatchError) as e:
        minimization_morphism(chain_dfa(), builtin_language("unary_powers_of_two"))
    assert e.value.witness == ""


def test_morphism_accepts_matching_oracle_spec():
    # even_length over a one-symbol alphabet is the chain DFA's language
    from nerode import LanguageSpec, OracleSpec

    spec = LanguageSpec(Alphabet.of("a"), OracleSpec("even_length"))
    phi = minimization_morphism(chain_dfa(), spec)
    assert check_morphism(phi).passed
    assert phi.mapping == (0, 1, 0)


def test_morphism_oracle_check_reads_a_permuted_dfa_alphabet():
    # over "ba": b leads to state 1, a to state 2, both back to 0; even length
    d = Dfa(Alphabet.of("ba"), 3, 0, frozenset({0}), ((1, 2), (0, 0), (0, 0)))
    phi = minimization_morphism(d, builtin_language("even_length"))
    assert phi.mapping == (0, 1, 1)
    assert check_morphism(phi).passed


def test_morphism_oracle_mismatch_witness_in_spec_order():
    # over "ba", from initial state 2: even length and no 'a'; read with
    # unpermuted columns it would be "no 'b'" and the first mismatch "ab"
    d = Dfa(Alphabet.of("ba"), 3, 2, frozenset({2}), ((0, 0), (2, 0), (1, 0)))
    with pytest.raises(RecognitionMismatchError) as e:
        minimization_morphism(d, builtin_language("even_length"))
    assert e.value.witness == "aa"


@pytest.mark.parametrize("finals", [{0}, {1}])
def test_morphism_oracle_symbol_missing_from_dfa_raises_input_error(finals):
    # the "ab" spec has a 'b' the unary DFA lacks; with finals {1} the empty
    # word would also mismatch, but the missing symbol is reported first
    with pytest.raises(InputError, match="'b'"):
        minimization_morphism(cycle_dfa(2, finals), builtin_language("even_length"))


def test_morphism_oracle_dfa_symbol_missing_from_spec_raises_input_error():
    # the DFA also reads 'b', and accepts "bb", which the unary spec cannot contain
    d = Dfa(Alphabet.of("ab"), 2, 0, frozenset({0}), ((1, 1), (0, 0)))
    spec = LanguageSpec(Alphabet.of("a"), OracleSpec("even_length"))
    with pytest.raises(InputError, match="'b'"):
        minimization_morphism(d, spec)


# --- check_morphism ----------------------------------------------------------


def test_check_reports_equivariance_violation_on_swapped_images():
    phi = minimization_morphism(chain_dfa(), regex_spec("(aa)*", "a"))
    bad = AutomatonMorphism(phi.source, phi.target, (0, 0, 1))
    report = check_morphism(bad)
    kinds = {v.kind for v in report.violations}
    assert "equivariance" in kinds


def test_check_reports_initial_violation():
    phi = minimization_morphism(chain_dfa(), regex_spec("(aa)*", "a"))
    bad = AutomatonMorphism(phi.source, phi.target, (1, 0, 1))
    report = check_morphism(bad)
    assert any(v.kind == "initial" for v in report.violations)


def test_check_reports_final_set_violation_both_directions():
    a = Alphabet.of("a")
    spec = regex_spec("(aa)*", "a")
    from nerode import minimal_dfa

    target = minimal_dfa(spec)
    # transitions equivariant, but the source has no finals at all, so the
    # accepting class downstairs is never hit
    source = Dfa(a, 2, 0, frozenset(), ((1,), (0,)))
    report = check_morphism(AutomatonMorphism(source, target, (0, 1)))
    assert {v.kind for v in report.violations} == {"finals-backward"}

    # and dually: a final source state mapping outside the accepting set
    source2 = Dfa(a, 2, 0, frozenset({1}), ((1,), (0,)))
    report2 = check_morphism(AutomatonMorphism(source2, target, (0, 1)))
    assert any(v.kind == "finals-forward" for v in report2.violations)


@pytest.mark.parametrize("entry", [5, -1, 2])
@pytest.mark.parametrize("approx", [False, True])
def test_check_morphism_rejects_map_entries_outside_the_target(entry, approx):
    d = cycle_dfa(2, {0})
    target = nerode_classes(dfa_language_spec(d), 2, 6) if approx else d
    with pytest.raises(InputError, match=rf"morphism map entry {entry} out of range 0\.\.1"):
        check_morphism(AutomatonMorphism(d, target, (0, entry)))


def test_check_morphism_into_approx_automaton_target():
    spec = regex_spec("(aa)*", "a")
    approx = nerode_classes(spec, 2, 6)
    from nerode import minimal_dfa

    d = minimal_dfa(spec)
    report = check_morphism(AutomatonMorphism(d, approx, (0, 1)))
    assert report.passed
    # at horizon 0 no successor of the one class was enumerated: every target is None
    unresolved = nerode_classes(builtin_language("anbn"), 0, 0)
    source = Dfa(Alphabet.of("ab"), 1, 0, frozenset({0}), ((0, 0),))
    report = check_morphism(AutomatonMorphism(source, unresolved, (0,)))
    assert not report.passed
    assert [v.detail for v in report.violations if v.kind == "equivariance"] == ["target transition unresolved"] * 2


def test_perturbation_sensitivity():
    rng = random.Random(7)
    for _ in range(10):
        d = random_trim_dfa(rng, max_states=6)
        phi = minimization_morphism(d, dfa_language_spec(d))
        assert check_morphism(phi).passed
        n_target = phi.target.n_states
        for s in range(d.n_states):
            for wrong in range(n_target):
                if wrong == phi.mapping[s]:
                    continue
                mutated = list(phi.mapping)
                mutated[s] = wrong
                report = check_morphism(AutomatonMorphism(d, phi.target, tuple(mutated)))
                assert not report.passed


def test_uniqueness_exhaustive_on_small_cases():
    for d in (chain_dfa(), cycle_dfa(4, {0, 2})):
        spec = dfa_language_spec(d)
        phi = minimization_morphism(d, spec)
        valid = [
            mapping
            for mapping in itertools.product(range(phi.target.n_states), repeat=d.n_states)
            if check_morphism(AutomatonMorphism(d, phi.target, mapping)).passed
        ]
        assert valid == [phi.mapping]


def test_uniqueness_against_residual_matching_oracle():
    rng = random.Random(11)
    for _ in range(25):
        d = random_trim_dfa(rng)
        phi = minimization_morphism(d, dfa_language_spec(d))
        assert phi.mapping == residual_matching_morphism(d, phi.target)


# --- induced homomorphism -----------------------------------------------------


def test_induced_hom_chain():
    phi = minimization_morphism(chain_dfa(), regex_spec("(aa)*", "a"))
    psi = induced_hom(phi)
    assert psi.mapping == (0, 1, 0)
    assert psi.source.order == 3 and psi.target.order == 2


def test_induced_hom_identity_morphism():
    from nerode import minimal_dfa

    spec = regex_spec("(a|b)*ab", "ab")
    d = minimal_dfa(spec)
    phi = minimization_morphism(d, spec)
    psi = induced_hom(phi)
    assert psi.mapping == tuple(range(psi.source.order))


def test_induced_hom_mod4_to_mod2():
    d = cycle_dfa(4, {0, 2})
    phi = minimization_morphism(d, regex_spec("(aa)*", "a"))
    psi = induced_hom(phi)
    assert psi.source.order == 4
    assert psi.mapping == (0, 1, 0, 1)


def test_induced_hom_is_homomorphism_on_all_pairs():
    phi = minimization_morphism(chain_dfa(), regex_spec("(aa)*", "a"))
    psi = induced_hom(phi)
    assert psi.mapping[0] == 0
    for i, j in itertools.product(range(psi.source.order), repeat=2):
        assert psi.mapping[psi.source.table[i][j]] == psi.target.table[psi.mapping[i]][psi.mapping[j]]


def test_induced_hom_triangle():
    for d in (chain_dfa(), cycle_dfa(4, {0, 2}), cycle_dfa(6, {0, 2, 4})):
        phi = minimization_morphism(d, dfa_language_spec(d))
        psi = induced_hom(phi)
        src, tgt = psi.source, psi.target
        for w in all_words(d.alphabet.symbols, 6):
            assert psi.mapping[src.evaluate_word(w)] == tgt.evaluate_word(w)


def test_induced_hom_rejects_invalid_morphism():
    phi = minimization_morphism(chain_dfa(), regex_spec("(aa)*", "a"))
    # state 0 maps to 0 but its successor 1 does not map to 0.a = 1; the
    # finals-backward violation at class 1 comes later
    bad = AutomatonMorphism(phi.source, phi.target, (0, 0, 0))
    with pytest.raises(InputError, match=r"^morphism is not valid: equivariance at 0:a$"):
        induced_hom(bad)


# --- recognition by a monoid ---------------------------------------------------


def test_verify_recognition_mod2_passes():
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(2, {0}))
    report = verify_recognition(m, m.generators, {0}, spec, 10)
    assert report.passed


def test_verify_recognition_wrong_final_set_fails_at_eps():
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(2, {0}))
    report = verify_recognition(m, m.generators, {1}, spec, 10)
    assert not report.passed
    assert report.violations[0].witness == ""


def test_verify_recognition_trivial_monoid_empty_language():
    m = monoid_from_generators(1, {"a": (0,)})
    report = verify_recognition(m, {"a": 0}, frozenset(), empty_language_spec("a"), 10)
    assert report.passed


def test_verify_recognition_mod3_first_witness_aa():
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(3, {0}))
    report = verify_recognition(m, m.generators, {0}, spec, 10)
    assert not report.passed
    assert report.violations[0].witness == "aa"


def test_verify_recognition_validates_inputs():
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(2, {0}))
    with pytest.raises(InputError):
        verify_recognition(m, {}, {0}, spec, 5)
    with pytest.raises(InputError):
        verify_recognition(m, m.generators, {9}, spec, 5)


RATIONAL_EVEN = [regex_spec("(aa)*", "a"), dfa_language_spec(cycle_dfa(2, {0}))]
ORACLE_EVEN = LanguageSpec(Alphabet.of("a"), OracleSpec("even_length"))


@pytest.mark.parametrize("spec", RATIONAL_EVEN + [ORACLE_EVEN])
def test_verify_recognition_rejects_negative_bound_for_every_spec(spec):
    m = transition_monoid(cycle_dfa(2, {0}))
    with pytest.raises(InputError, match="word length bound must be non-negative"):
        verify_recognition(m, m.generators, {0}, spec, -1)


@pytest.mark.parametrize("spec", RATIONAL_EVEN)
def test_min_hom_rejects_negative_bound_for_rational_specs(spec):
    m = transition_monoid(cycle_dfa(2, {0}))
    with pytest.raises(InputError, match="word length bound must be non-negative"):
        minimal_monoid_hom(m, m.generators, {0}, spec, bound=-1)


def test_min_hom_rejects_oracle_spec_before_the_bound():
    m = transition_monoid(cycle_dfa(2, {0}))
    with pytest.raises(UnsupportedPresentationError, match="syntactic monoid needs a regex or dfa"):
        minimal_monoid_hom(m, m.generators, {0}, ORACLE_EVEN, bound=-1)


def test_rational_specs_are_decided_without_enumerating_words(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rational spec was checked word by word")

    for module in (language, recognition):
        monkeypatch.setattr(module, "residual_bits", refuse)
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(4, {0, 2}))
    assert verify_recognition(m, m.generators, {0, 2}, spec, 12).passed
    report = verify_recognition(m, m.generators, {0}, spec, 12)
    assert [v.witness for v in report.violations] == ["a" * n for n in (2, 6, 10)]
    assert minimal_monoid_hom(m, m.generators, {0, 2}, spec).mapping == (0, 1, 0, 1)
    with pytest.raises(RecognitionError) as e:
        minimal_monoid_hom(m, m.generators, {0}, spec)
    assert e.value.witness == "aa"


@pytest.mark.parametrize("pattern, symbols", [("(aa)*", "a"), ("(a|b)*ab", "ab"), ("a*b*", "ab")])
def test_correct_recognizer_passes_at_bound_60(pattern, symbols):
    # a non-minimal recognizer: the transition monoid of the minimal DFA
    # run side by side with a 3-cycle on every letter
    spec = regex_spec(pattern, symbols)
    d = language.presented_dfa(spec)
    cycle = [[(x + 1) % 3] * len(d.alphabet) for x in range(3)]
    monoid, images, valid = _product_recognizer(d, cycle, proper=False)
    assert verify_recognition(monoid, images, valid, spec, 60).violations == ()


def _product_recognizer(d, x_rows, proper, z_state=0):
    """The transition monoid of d run side by side with the transitions
    x_rows (x_rows[x][k] is the successor of x on the k-th letter), the
    letters' images and the final set that recognizes L(d).  With proper,
    one more generator, the constant map to z_state, joins that no letter
    reads, so the letters may generate a proper submonoid."""
    m = len(x_rows)
    n = d.n_states * m
    gens = {
        ch: tuple(d.rows[s // m][k] * m + x_rows[s % m][k] for s in range(n))
        for k, ch in enumerate(d.alphabet.symbols)
    }
    if proper:
        gens["z"] = (z_state,) * n
    monoid = monoid_from_generators(n, gens)
    images = {ch: monoid.generators[ch] for ch in d.alphabet.symbols}
    start = d.initial * m
    valid = frozenset(i for i, e in enumerate(monoid.elements) if e[start] // m in d.finals)
    return monoid, images, valid


def _with_unreachable(rng, d, extra):
    """d with extra states that no state reaches, on random rows and finals."""
    n = d.n_states + extra
    rows = d.rows + tuple(tuple(rng.randrange(n) for _ in d.alphabet) for _ in range(extra))
    finals = d.finals | {s for s in range(d.n_states, n) if rng.random() < 0.5}
    return Dfa(d.alphabet, n, d.initial, frozenset(finals), rows)


def _depths(monoid, images):
    """Length of the shortest word over the images reaching each generated element."""
    depth, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for e in frontier:
            for g in images.values():
                f = monoid.table[e][g]
                if f not in depth:
                    depth[f] = depth[e] + 1
                    nxt.append(f)
        frontier = nxt
    return depth


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bound=st.integers(0, 8),
    extra=st.integers(0, 2),
    proper=st.booleans(),
    finals_kind=st.sampled_from(["valid", "flip", "random", "foreign"]),
    shift=st.integers(-2, 2),
)
def test_verify_recognition_matches_brute_force(seed, bound, extra, proper, finals_kind, shift):
    rng = random.Random(seed)
    trim = random_trim_dfa(rng, max_states=4, symbols="abc")
    spec = dfa_language_spec(_with_unreachable(rng, trim, extra))
    m = rng.randint(1, 2)
    x_rows = [[rng.randrange(m) for _ in trim.alphabet] for _ in range(m)]
    monoid, images, valid = _product_recognizer(trim, x_rows, proper, rng.randrange(trim.n_states * m))
    if finals_kind == "foreign":  # a monoid unrelated to the spec, letters read as random elements
        m = rng.randint(1, 3)
        gens = {ch: tuple(rng.randrange(m) for _ in range(m)) for ch in trim.alphabet.symbols}
        monoid = monoid_from_generators(m, gens)
        images = {ch: rng.randrange(monoid.order) for ch in trim.alphabet.symbols}
        finals = frozenset(e for e in range(monoid.order) if rng.random() < 0.5)
    elif finals_kind == "valid":
        finals = valid
    elif finals_kind == "flip":  # the first failure falls near bound + shift
        depth = _depths(monoid, images)
        e = min(depth, key=lambda e: (abs(depth[e] - bound - shift), e))
        finals = valid ^ {e}
    else:
        finals = frozenset(e for e in range(monoid.order) if rng.random() < 0.5)

    member = dfa_words(spec.presentation.dfa, bound).__contains__
    ref = brute_recognition_violations(monoid, images, finals, member, trim.alphabet.symbols, bound)
    report = verify_recognition(monoid, images, finals, spec, bound)
    assert [(v.kind, v.witness, v.detail) for v in report.violations] == ref
    assert verify_recognition(monoid, images, finals, spec, bound, first_only=True).violations == report.violations[:1]
    try:
        minimal_monoid_hom(monoid, images, finals, spec, bound)
    except RecognitionError as e:
        assert ref and e.witness == ref[0][1]
    except IllDefinedHomError:  # no collapse exists, though F passes up to the bound
        assert not ref
    else:
        assert not ref


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bound=st.integers(0, 8),
    extra_a=st.integers(0, 2),
    extra_b=st.integers(0, 2),
)
def test_product_mismatches_of_two_dfas_match_brute_force(seed, bound, extra_a, extra_b):
    # a is read in place through shuffled columns from any start state; b
    # keeps its own layout; both carry states their start does not reach
    rng = random.Random(seed)
    a = random_trim_dfa(rng, max_states=4, symbols="abc")
    b = random_trim_dfa(rng, max_states=4, symbols=a.alphabet.symbols)
    while b.alphabet != a.alphabet:
        b = random_trim_dfa(rng, max_states=4, symbols=a.alphabet.symbols)
    a, b = _with_unreachable(rng, a, extra_a), _with_unreachable(rng, b, extra_b)
    a = dataclasses.replace(a, initial=rng.randrange(a.n_states))
    k = len(a.alphabet)
    cols = rng.sample(range(k), k)
    table = [[row[cols.index(c)] for c in range(k)] for row in a.rows]

    diff = sorted(dfa_words(a, bound) ^ dfa_words(b, bound), key=a.alphabet.rank)
    ref = [(a.alphabet.rank(w), a.run(w)) for w in diff]
    assert product_mismatches(table, cols, a.initial, a.finals, b, bound) == ref
    assert product_mismatches(table, cols, a.initial, a.finals, b, bound, True) == ref[:1]


# --- minimal monoid homomorphism ------------------------------------------------


def test_min_hom_mod4_collapses_to_parity():
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(4, {0, 2}))
    psi = minimal_monoid_hom(m, m.generators, {0, 2}, spec)
    assert psi.mapping == (0, 1, 0, 1)
    assert psi.ignored == ()
    assert psi.target.order == 2


def test_min_hom_identity_on_syntactic_monoid():
    spec = regex_spec("(a|b)*ab", "ab")
    m, finals = syntactic_monoid(spec)
    psi = minimal_monoid_hom(m, m.generators, finals, spec)
    assert psi.mapping == tuple(range(m.order))


def test_min_hom_recognition_failure_witness():
    spec = regex_spec("(aa)*", "a")
    m = transition_monoid(cycle_dfa(3, {0}))
    with pytest.raises(RecognitionError) as e:
        minimal_monoid_hom(m, m.generators, {0}, spec)
    assert e.value.witness == "aa"


def test_min_hom_ill_defined_names_word_pair():
    # a trivial monoid trivially "recognizes" anything at bound 0, but the
    # collapse cannot exist; the counterexample pair shares a source image
    spec = regex_spec("(aa)*", "a")
    m = monoid_from_generators(1, {"a": (0,)})
    with pytest.raises(IllDefinedHomError) as e:
        minimal_monoid_hom(m, {"a": 0}, {0}, spec, bound=0)
    assert e.value.pair == ("", "a")


def test_min_hom_reports_non_generated_part():
    # generator image g^2 inside Z/4 generates only the even part
    spec = regex_spec("a*", "a")
    m = transition_monoid(cycle_dfa(4, {0, 1, 2, 3}))
    psi = minimal_monoid_hom(m, {"a": 2}, {0, 1, 2, 3}, spec)
    assert psi.ignored == (1, 3)
    assert psi.mapping == (0, None, 0, None)


def test_min_hom_triangle_and_surjectivity():
    spec = regex_spec("(aa)*", "a")
    msyn, _ = syntactic_monoid(spec)
    m = transition_monoid(cycle_dfa(4, {0, 2}))
    psi = minimal_monoid_hom(m, m.generators, {0, 2}, spec)
    for w in all_words("a", 6):
        assert psi.mapping[m.evaluate_word(w)] == msyn.evaluate_word(w)
    assert set(psi.mapping) == set(range(msyn.order))


def test_min_hom_requires_rational_spec():
    from nerode import UnsupportedPresentationError

    m = transition_monoid(cycle_dfa(2, {0}))
    with pytest.raises(UnsupportedPresentationError):
        minimal_monoid_hom(m, m.generators, {0}, builtin_language("anbn"))


def test_min_hom_reports_a_wrong_final_set_before_the_syntactic_monoid(monkeypatch):
    # the syntactic monoid of (a|b)*ab exceeds a cap of 3 elements, but the
    # trivial monoid's final set {0} already fails at the empty word
    monkeypatch.setenv("NERODE_MONOID_CAP", "3")
    spec = regex_spec("(a|b)*ab", "ab")
    with pytest.raises(ResourceError):
        syntactic_monoid(spec)
    m = monoid_from_generators(1, {"a": (0,), "b": (0,)})
    with pytest.raises(RecognitionError) as e:
        minimal_monoid_hom(m, m.generators, {0}, spec)
    assert e.value.witness == ""
