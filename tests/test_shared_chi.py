"""Composite bounded queries read every depth and bound from one χ.

stabilization_check, growth_profile and unary_residual_count each build χ
once, at the longest length they need, and must agree with the separate
nerode_classes and context_classes calls they stand for.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from nerode import (
    builtin_language,
    context_classes,
    export_json,
    growth_profile,
    monoid,
    nerode_classes,
    shift,
    stabilization_check,
    topology,
    unary_residual_count,
)
from nerode.language import chi_bits
from nerode.topology import StabilizationVerdict
from tests.corpus import oracle_corpus_specs, regex_corpus_specs, regex_spec
from tests.oracles import dfa_language_spec, random_trim_dfa


@pytest.fixture
def chi_calls(monkeypatch):
    calls = []

    def counting(spec, max_len):
        calls.append(max_len)
        return chi_bits(spec, max_len)

    for module in (topology, monoid, shift):
        monkeypatch.setattr(module, "chi_bits", counting, raising=False)
    return calls


def test_stabilization_builds_one_chi(chi_calls):
    stabilization_check(builtin_language("anbn"), 3, 6)
    assert chi_calls == [3 + 6 + 2]


def test_growth_profile_builds_one_chi(chi_calls):
    growth_profile(builtin_language("anbn"), 3, 5)
    assert chi_calls == [2 * 3 + 5]


def test_unary_residual_count_builds_one_chi(chi_calls):
    unary_residual_count(builtin_language("champernowne_unary"), 4, 20)
    assert chi_calls == [20 + 4]


def _reference_verdict(spec, d, horizon):
    """The verdict from two separate quotients, with the refinement map
    checked class by class: every fine class truncates into a coarse class,
    every coarse class is hit, and stabilization needs the map injective."""
    coarse = nerode_classes(spec, d, horizon)
    fine = nerode_classes(spec, d + 1, horizon)
    prefix_len = spec.alphabet.word_count(d)
    coarse_index = {p.bits: i for i, p in enumerate(coarse.classes)}
    image = [coarse_index[p.bits[:prefix_len]] for p in fine.classes]
    assert set(image) == set(range(len(coarse.classes)))
    injective = len(set(image)) == len(image)
    consistent = all(
        tr.consistent and tr.target is not None
        for a in (coarse, fine)
        for row in a.transitions
        for tr in row
    )
    counts = (len(coarse.classes), len(fine.classes))
    stabilized = counts[0] == counts[1] and injective and consistent
    return StabilizationVerdict(
        stabilized,
        (d, d + 1),
        counts,
        counts[0] if stabilized else None,
        coarse.to_dfa() if stabilized else None,
    )


def _spec(source):
    if isinstance(source, str):
        return builtin_language(source)
    return dfa_language_spec(random_trim_dfa(random.Random(source), max_states=6))


binary_languages = st.one_of(
    st.sampled_from(["anbn", "dyck1", "even_length"]), st.integers(0, 2**32 - 1)
).map(_spec)


@settings(max_examples=80, deadline=None)
@given(binary_languages, st.integers(0, 3), st.integers(1, 3))
# equal counts and a consistent coarse quotient, but the successor of the
# witness "a" on the horizon has a depth-1 residual that no class has
@example(regex_spec("a(aaa)*", "a"), 0, 1)
def test_stabilization_matches_two_separate_quotients(spec, d, extra):
    horizon = d + extra
    got = export_json(stabilization_check(spec, d, horizon))
    assert got == export_json(_reference_verdict(spec, d, horizon))


@pytest.mark.parametrize("spec", regex_corpus_specs() + oracle_corpus_specs(), ids=repr)
def test_growth_counts_are_context_class_counts(spec):
    for kmax, bound in ((1, 1), (2, 4), (3, 5)):
        counts = growth_profile(spec, kmax, bound).counts
        expected = [context_classes(spec, k, k, bound).class_count for k in range(1, kmax + 1)]
        assert list(counts) == expected
