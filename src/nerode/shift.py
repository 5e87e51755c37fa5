"""Unary languages as one-sided binary sequences under the shift.

A unary language is the same thing as its characteristic sequence in
{0,1}^N, and appending a letter to a word shifts the sequence left by one.
The Champernowne-style sequence here concatenates the length-lex enumeration
of binary words (0, 1, 00, 01, 10, 11, 000, ...); its shift orbit visits
every finite pattern, so density can be checked window by window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .language import LanguageSpec, builtin_language, chi_bits, membership, residual_bits


def champernowne_prefix(n: int) -> str:
    """First n bits: "" for n=0, "0100011011" for n=10."""
    return champernowne_stream().prefix(n)


class BitStream:
    """Characteristic bit sequence of a unary language.

    bit(i) is membership of the length-i word, and prefix(n) the residual
    bits of the empty word to depth n - 1.  The stream holds only the spec,
    so concurrent readers share no state.
    """

    def __init__(self, spec: LanguageSpec):
        if len(spec.alphabet) != 1:
            raise InputError("bit streams need a one-symbol alphabet")
        self.spec = spec

    def bit(self, i: int) -> int:
        if i < 0:
            raise InputError("bit index must be non-negative")
        return membership(self.spec, self.spec.alphabet.symbols[0] * i)

    def prefix(self, n: int) -> str:
        if n < 0:
            raise InputError("prefix length must be non-negative")
        bits = bytes(residual_bits(self.spec, "", n - 1)) if n else b""
        return bits.translate(bytes.maketrans(b"\0\1", b"01")).decode()


def champernowne_stream() -> BitStream:
    return BitStream(builtin_language("champernowne_unary"))


@dataclass
class DensityReport:
    k: int
    prefix_length: int
    missing: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.missing


def density_check(stream: BitStream, k: int, n: int) -> DensityReport:
    """Which of the 2^k binary patterns occur as length-k factors of the
    length-n prefix; passing is finite evidence that the shift orbit of the
    sequence is dense at window size k."""
    if k < 1:
        raise InputError("window size must be at least 1")
    if n < k:
        raise InputError("prefix length must be at least the window size")
    p = stream.prefix(n)
    seen = {p[i:i + k] for i in range(n - k + 1)}
    missing = tuple(
        format(v, f"0{k}b") for v in range(1 << k) if format(v, f"0{k}b") not in seen
    )
    return DensityReport(k, n, missing)


def unary_residual_count(spec: LanguageSpec, d: int, horizon: int) -> int:
    """Number of distinct depth-d residual truncations among words of length
    <= horizon; for a unary language this is the number of distinct
    length-(d+1) windows of the characteristic sequence starting at
    positions 0..horizon."""
    if len(spec.alphabet) != 1:
        raise InputError("residual window counting needs a one-symbol alphabet")
    if d < 0:
        raise InputError("depth must be non-negative")
    if horizon < d:
        raise InputError("horizon must be at least the depth")
    p = chi_bits(spec, horizon + d)  # byte m is the bit of the word of length m
    return len({p[m:m + d + 1] for m in range(horizon + 1)})
