import json

import pytest
from hypothesis import given, settings, strategies as st

from nerode import (
    Alphabet,
    Dfa,
    InputError,
    builtin_language,
    export_dot,
    export_json,
    minimal_dfa,
    nerode_classes,
    orbit_closure_report,
    parse_spec_file,
    presented_dfa,
    residual_truncation,
    syntactic_monoid,
    stabilization_check,
    transition_monoid,
)
from nerode import serialize
from nerode.serialize import monoid_dict, write_json
from tests.corpus import full_language_spec, regex_spec


def test_json_is_canonical_and_versioned():
    spec = regex_spec("(aa)*", "a")
    text = export_json(minimal_dfa(spec))
    payload = json.loads(text)
    assert payload["schema"] == "nerode/dfa/1"
    assert text == export_json(minimal_dfa(spec))
    assert list(payload) == sorted(payload)


def test_json_point_bits_in_lengthlex_order():
    payload = json.loads(export_json(residual_truncation(builtin_language("anbn"), "", 2)))
    assert payload == {
        "schema": "nerode/point/1",
        "alphabet": "ab",
        "depth": 2,
        "bits": "1000100",
    }


def test_json_syntactic_monoid_with_finals():
    m, finals = syntactic_monoid(regex_spec("(aa)*", "a"))
    payload = json.loads(export_json(monoid_dict(m, finals)))
    assert payload["order"] == 2
    assert payload["final_elements"] == [0]
    assert payload["elements"][1] == {"index": 1, "images": [1, 0], "witness": "a"}


def test_json_stabilization_growing_has_counts():
    payload = json.loads(export_json(stabilization_check(builtin_language("anbn"), 3, 8)))
    assert payload["stabilized"] is False
    assert payload["counts"] == [7, 9]
    assert payload["proposed"] is None


def test_json_empty_closure_patterns_valid():
    report = orbit_closure_report(full_language_spec("a"), 1, 2)
    payload = json.loads(export_json(report))
    assert payload["patterns"] == [
        {"bits": "11", "count": 3, "first": 0, "last": 2, "recurrent": True}
    ]


def test_json_unknown_type_rejected():
    with pytest.raises(InputError):
        export_json(object())


def test_dot_two_state_parity():
    dot = export_dot(minimal_dfa(regex_spec("(aa)*", "a")))
    assert dot.count("doublecircle") == 1
    assert dot.count("->") == 3  # start marker + two labelled edges
    assert 'label="0:ε"' in dot


def test_dot_one_state_full_language_self_loop():
    dot = export_dot(minimal_dfa(full_language_spec("a")))
    assert dot.count("doublecircle") == 1
    assert "q0 -> q0" in dot


def test_dot_merges_parallel_edges():
    dot = export_dot(minimal_dfa(full_language_spec("ab")))
    assert 'q0 -> q0 [label="a,b"]' in dot
    # state 2 is unreachable, so it has no access word and is labelled by its index
    dot = export_dot(Dfa(Alphabet.of("ab"), 3, 0, frozenset({1}), ((1, 1), (1, 1), (2, 0))))
    assert 'q1 -> q1 [label="a,b"]' in dot
    assert 'q2 [shape=circle label="2"];' in dot


def test_dot_approx_automaton_nodes_and_dashes():
    # at depth 2 the anbn quotient has five classes: the a-spine, the dead
    # class, and the accept-only class of ab
    approx = nerode_classes(builtin_language("anbn"), 2, 6)
    dot = export_dot(approx)
    assert dot.count("shape=circle") + dot.count("shape=doublecircle") == 5
    assert "style=dashed" in dot


def test_dot_deterministic():
    approx = nerode_classes(builtin_language("dyck1"), 2, 6)
    assert export_dot(approx) == export_dot(approx)


def test_dot_unknown_type_rejected():
    with pytest.raises(InputError):
        export_dot(42)


class _Int(int):
    def __repr__(self):  # json.dumps ignores this, and so must the emitter
        return "not json"


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('ε\U0001f600"\\\n\t\x00\x1f\x7f')), max_size=6)
_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40), _TEXT,
    st.floats(), st.builds(_Int, st.integers(-9, 9)),
)
_TREE = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers(-300, 10**6), max_size=5),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_TEXT, _TREE, max_size=5))
def test_emitter_matches_json_dumps(payload):
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert export_json(payload) == want
    parts = []
    write_json(payload, parts.append)
    assert "".join(parts) == want


def test_write_json_streams_a_monoid_in_blocks():
    rows = "5 3\n0 0\n6 6\n6 1\n6 0\n0 1\n1 4"  # order 439
    payload = monoid_dict(transition_monoid(presented_dfa(parse_spec_file(f"alphabet: ab\ndfa: 7 0 0,3\n{rows}"))))
    parts = []
    write_json(payload, parts.append)
    assert len(parts) > 1 and all(len(part) >= serialize._BLOCK for part in parts[:-1])
    assert "".join(parts) == export_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_write_json_writes_nothing_for_an_unknown_type():
    parts = []
    with pytest.raises(InputError):
        write_json(object(), parts.append)
    assert parts == []
