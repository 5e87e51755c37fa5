import threading

import pytest

from nerode import (
    InputError,
    builtin_language,
    champernowne_bit,
    champernowne_prefix,
    champernowne_stream,
    density_check,
    membership,
    nerode_classes,
    unary_residual_count,
    BitStream,
)
from tests.corpus import empty_language_spec, regex_spec

# minimal prefix length at which every length-k pattern occurs as a factor
# (computed once by scanning the sequence; frozen)
MINIMAL_DENSITY_PREFIX = {1: 2, 2: 7, 3: 23, 4: 67, 5: 179, 6: 451, 7: 1091, 8: 2563}


def test_champernowne_prefix_values():
    assert champernowne_prefix(0) == ""
    assert champernowne_prefix(6) == "010001"
    assert champernowne_prefix(10) == "0100011011"


def test_champernowne_prefix_is_blockwise_enumeration():
    # concatenating the length-lex enumeration 0,1,00,01,10,11,000,...
    blocks = []
    for length in range(1, 5):
        for v in range(1 << length):
            blocks.append(format(v, f"0{length}b"))
    expected = "".join(blocks)
    assert champernowne_prefix(len(expected)) == expected


def test_champernowne_bit_matches_prefix():
    p = champernowne_prefix(200)
    assert all(champernowne_bit(i) == int(p[i]) for i in range(200))
    with pytest.raises(InputError, match="^bit index must be non-negative$"):
        champernowne_bit(-1)


def test_champernowne_oracle_matches_sequence():
    spec = builtin_language("champernowne_unary")
    p = champernowne_prefix(40)
    for i in range(40):
        assert membership(spec, "a" * i) == int(p[i])


def test_bitstream_caches_and_serves_bits():
    s = champernowne_stream()
    assert s.bit(0) == 0
    assert s.bit(1) == 1
    assert s.prefix(10) == "0100011011"
    assert s.bit(3) == 0


def test_bitstream_rejects_binary_alphabet():
    with pytest.raises(InputError):
        BitStream(builtin_language("anbn"))
    s = champernowne_stream()
    with pytest.raises(InputError, match="^bit index must be non-negative$"):
        s.bit(-1)
    with pytest.raises(InputError, match="^prefix length must be non-negative$"):
        s.prefix(-1)


def test_bitstream_concurrent_reads_consistent():
    s = champernowne_stream()
    results = []

    def reader():
        results.append(s.prefix(500))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == champernowne_prefix(500) for r in results)


# --- density ----------------------------------------------------------------


def test_density_pass_at_k2():
    r = density_check(champernowne_stream(), 2, 10)
    assert r.passed and r.missing == ()


def test_density_all_zero_stream_misses_one():
    r = density_check(BitStream(empty_language_spec("a")), 1, 10)
    assert not r.passed
    assert r.missing == ("1",)


def test_density_tiny_prefix_fails():
    r = density_check(champernowne_stream(), 3, 3)
    assert not r.passed
    assert len(r.missing) == 7


def test_density_preconditions():
    s = champernowne_stream()
    with pytest.raises(InputError):
        density_check(s, 0, 5)
    with pytest.raises(InputError):
        density_check(s, 5, 3)


def test_density_monotone_in_prefix_length():
    s = champernowne_stream()
    for k in (2, 3, 4):
        n = MINIMAL_DENSITY_PREFIX[k]
        assert density_check(s, k, n).passed
        assert density_check(s, k, n + 25).passed
        assert not density_check(s, k, n - 1).passed


def test_density_thresholds_frozen_table():
    s = champernowne_stream()
    for k, n in MINIMAL_DENSITY_PREFIX.items():
        assert density_check(s, k, n).passed
        assert not density_check(s, k, n - 1).passed


# --- unary residual counts -----------------------------------------------------


def test_unary_residual_count_dense_sequence_saturates():
    spec = builtin_language("champernowne_unary")
    for d in range(0, 5):
        horizon = MINIMAL_DENSITY_PREFIX[d + 1] - (d + 1)
        assert unary_residual_count(spec, d, horizon) == 2 ** (d + 1)


def test_unary_residual_count_empty_language():
    assert unary_residual_count(empty_language_spec("a"), 3, 10) == 1


def test_unary_residual_count_parity():
    assert unary_residual_count(regex_spec("(aa)*", "a"), 3, 10) == 2


def test_unary_residual_count_rejects_binary():
    with pytest.raises(InputError):
        unary_residual_count(builtin_language("anbn"), 2, 5)
    spec = builtin_language("champernowne_unary")
    with pytest.raises(InputError, match="^depth must be non-negative$"):
        unary_residual_count(spec, -1, 5)
    with pytest.raises(InputError, match="^horizon must be at least the depth$"):
        unary_residual_count(spec, 3, 2)


@pytest.mark.parametrize("name", ["champernowne_unary", "unary_powers_of_two"])
@pytest.mark.parametrize("d,horizon", [(1, 12), (2, 20), (3, 40)])
def test_unary_residual_count_agrees_with_nerode(name, d, horizon):
    spec = builtin_language(name)
    assert unary_residual_count(spec, d, horizon) == len(
        nerode_classes(spec, d, horizon).classes
    )
