"""Language specifications: regex, explicit DFA, or named membership oracle.

A LanguageSpec is the workbench's handle on a language L over a fixed
alphabet: it supplies the total characteristic function via membership().
Regex and DFA presentations are rational and support exact constructions;
oracle presentations are arbitrary total deciders and support only the
finite-depth approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .alphabet import Alphabet, Word, walk_states
from .dfa import Dfa, minimize_dfa
from .errors import ConfigError, InputError, SpecFileError
from .regex import compile_regex, parse_pattern


@dataclass(frozen=True)
class RegexSpec:
    pattern: str


@dataclass(frozen=True)
class DfaSpec:
    dfa: Dfa


@dataclass(frozen=True)
class OracleSpec:
    name: str
    params: tuple[int, ...] = ()


Presentation = RegexSpec | DfaSpec | OracleSpec


@dataclass(frozen=True)
class _Builtin:
    default_alphabet: str
    decide: Callable[[Word], int]  # a unary builtin decides from the length
    needs: frozenset[str] = frozenset()
    unary: bool = False


def _decide_anbn(w: Word) -> int:
    half, odd = divmod(len(w), 2)
    if odd:
        return 0
    return int(w == "a" * half + "b" * half)


def _decide_dyck1(w: Word) -> int:
    depth = 0
    for ch in w:
        if ch == "a":
            depth += 1
        elif ch == "b":
            depth -= 1
            if depth < 0:
                return 0
        else:
            return 0
    return int(depth == 0)


def _decide_powers_of_two(n: int) -> int:
    return int(n >= 1 and n & (n - 1) == 0)


def champernowne_bit(i: int) -> int:
    """Bit i of the concatenated length-lex enumeration of binary words."""
    if i < 0:
        raise InputError("bit index must be non-negative")
    length = 1
    while True:
        block = length << length  # total bits contributed by words of this length
        if i < block:
            word_idx, offset = divmod(i, length)
            return (word_idx >> (length - 1 - offset)) & 1
        i -= block
        length += 1


def _decide_even_length(w: Word) -> int:
    return int(len(w) % 2 == 0)


_BUILTINS: dict[str, _Builtin] = {
    "anbn": _Builtin("ab", _decide_anbn, needs=frozenset("ab")),
    "dyck1": _Builtin("ab", _decide_dyck1, needs=frozenset("ab")),
    "unary_powers_of_two": _Builtin("a", _decide_powers_of_two, unary=True),
    "champernowne_unary": _Builtin("a", champernowne_bit, unary=True),
    "even_length": _Builtin("ab", _decide_even_length),
}


@dataclass(frozen=True)
class LanguageSpec:
    alphabet: Alphabet
    presentation: Presentation

    def __post_init__(self):
        p = self.presentation
        if isinstance(p, RegexSpec):
            parse_pattern(p.pattern, self.alphabet)
        elif isinstance(p, DfaSpec):
            if p.dfa.alphabet != self.alphabet:
                raise InputError("DFA alphabet does not match the spec alphabet")
        elif isinstance(p, OracleSpec):
            info = _BUILTINS.get(p.name)
            if info is None:
                raise ConfigError(
                    f"unknown builtin {p.name!r}; known: {', '.join(sorted(_BUILTINS))}"
                )
            if p.params:
                raise ConfigError(f"builtin {p.name!r} takes 0 parameters")
            missing = info.needs - set(self.alphabet.symbols)
            if missing:
                raise ConfigError(
                    f"builtin {p.name!r} needs symbols {sorted(missing)} in the alphabet"
                )
            if info.unary and len(self.alphabet) != 1:
                raise ConfigError(f"builtin {p.name!r} needs a one-symbol alphabet")
        else:
            raise InputError(f"unknown presentation {p!r}")

    @property
    def rational(self) -> bool:
        return isinstance(self.presentation, (RegexSpec, DfaSpec))


@lru_cache(maxsize=256)
def _regex_dfa(pattern: str, alphabet: Alphabet) -> Dfa:
    return compile_regex(pattern, alphabet)


def presented_dfa(spec: LanguageSpec) -> Dfa:
    """The DFA behind a rational spec: compiled (minimal) for a regex,
    verbatim for an explicit DFA presentation."""
    p = spec.presentation
    if isinstance(p, DfaSpec):
        return p.dfa
    if isinstance(p, RegexSpec):
        return _regex_dfa(p.pattern, spec.alphabet)
    raise InputError("oracle presentations have no DFA")


def residual_bits(spec: LanguageSpec, w: Word, max_len: int) -> Iterator[int]:
    """membership(spec, w + u) for every u in Alphabet.words(max_len), in that
    order: the bits of the residual of w.  The one evaluator of a presentation.

    w is validated once.  A rational spec runs w once, then takes one table
    step per word; an oracle spec makes one decide call per word, and a
    unary one is handed the word lengths, so it builds no words.
    """
    if max_len < 0:
        raise InputError("word length bound must be non-negative")
    spec.alphabet.validate_word(w)
    p = spec.presentation
    if isinstance(p, OracleSpec):
        info = _BUILTINS[p.name]
        if info.unary:  # the alphabet has one symbol, so words(max_len) has these lengths
            return map(info.decide, range(len(w), len(w) + max_len + 1))
        words = spec.alphabet.words(max_len)
        if w:
            words = map(w.__add__, words)
        return map(info.decide, words)
    d = presented_dfa(spec)
    bit = [int(s in d.finals) for s in range(d.n_states)]  # ints, not bools: bits are printed
    return map(bit.__getitem__, walk_states(d.run(w), d.rows, max_len))


def membership(spec: LanguageSpec, w: Word) -> int:
    """Characteristic function of the spec's language: 1 iff w is a member."""
    return next(residual_bits(spec, w, 0))


def minimal_dfa(spec: LanguageSpec) -> Dfa:
    """Canonical minimal DFA of a rational spec.  A regex compiles to one,
    so only an explicit DFA presentation is minimized here."""
    d = presented_dfa(spec)
    return d if isinstance(spec.presentation, RegexSpec) else minimize_dfa(d)


def chi_bits(spec: LanguageSpec, max_len: int) -> bytes:
    """χ, the characteristic table: membership of every word of length <=
    max_len, byte i for the word of Alphabet.rank i."""
    return bytes(residual_bits(spec, "", max_len))


def characteristic_table(spec: LanguageSpec, max_len: int) -> dict[Word, int]:
    """χ as a dict keyed by the words, in length-lex order: a view of
    chi_bits for readers who want words; no library module calls it."""
    return dict(zip(spec.alphabet.words(max_len), chi_bits(spec, max_len)))


def residual_key(chi: bytes, alphabet: Alphabet, r: int, depth: int) -> bytes:
    """The residual bits to the given depth of the word w of rank r, read
    from χ, which must cover the words of length |w| + depth."""
    return b"".join([chi[s] for s in alphabet.residual_slices(r, depth)])


def context_buckets(
    chi: bytes, alphabet: Alphabet, m: int, n: int, bound: int
) -> tuple[dict[bytes, int], list[list[int]], list[int]]:
    """Bucket the ranks of the words w of length <= bound by the bits of
    x·w·y for x in words(m) and y in words(n), read from a χ that covers the
    words of length m + bound + n: for m = 0, the depth-n Myhill-Nerode classes.

    index maps each key to its class number, numbered in order of first
    appearance; members[c] lists the ranks of class c in increasing order,
    and labels[r] is the class of rank r."""
    k = len(alphabet)
    xs = range(alphabet.word_count(m))  # the ranks of the left contexts x
    keys = (residual_key(chi, alphabet, q, n) for q in range(alphabet.word_count(m + bound)))

    def joined(right: list[bytes]) -> Iterator[bytes]:
        # rank(x·w) = rank(x)·k^|w| + rank(w): the words x·w of one length, one block of right per x
        for length, s in enumerate(alphabet.residual_slices(0, bound)):
            size = k**length
            blocks = [map(right.__getitem__, range(x * size + s.start, x * size + s.stop)) for x in xs]
            yield from map(b"".join, zip(*blocks))

    index: dict[bytes, int] = {}
    members: list[list[int]] = []
    labels: list[int] = []
    for r, key in enumerate(joined(list(keys)) if m else keys):  # x = ε alone: w's own key
        ci = index.get(key)
        if ci is None:
            ci = index[key] = len(members)
            members.append([])
        members[ci].append(r)
        labels.append(ci)
    return index, members, labels


def parse_finals(text: str) -> frozenset[int]:
    """A final-set list: comma-separated integers (no empty fields), or "-" for none."""
    if text == "-":
        return frozenset()
    try:
        return frozenset(int(f) for f in text.split(","))
    except ValueError:
        raise InputError(
            f"final elements must be a comma-separated list of integers, got {text!r}"
        ) from None


def builtin_language(name: str, params: tuple[int, ...] | list[int] = ()) -> LanguageSpec:
    """Oracle-backed spec for a registered builtin, on its default alphabet."""
    info = _BUILTINS.get(name)
    if info is None:
        raise ConfigError(f"unknown builtin {name!r}; known: {', '.join(sorted(_BUILTINS))}")
    return LanguageSpec(Alphabet.of(info.default_alphabet), OracleSpec(name, tuple(params)))


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def parse_spec_file(text: str) -> LanguageSpec:
    """Parse the line-oriented spec grammar.

    alphabet: <symbols>
    followed by exactly one of
      regex: <pattern>
      builtin: <name>   (no builtin takes parameters)
      dfa: <n> <initial> <finals csv|->   (then n rows, one target per symbol)

    Blank lines are ignored; "-" stands for an empty finals set.
    """
    lines = [(i + 1, raw.strip()) for i, raw in enumerate(text.splitlines())]
    lines = [(n, s) for n, s in lines if s]
    if not lines:
        raise SpecFileError("empty spec", 1)

    ln, head = lines[0]
    if not head.startswith("alphabet:"):
        raise SpecFileError("expected 'alphabet: <symbols>'", ln)
    symbols = head[len("alphabet:"):].strip()
    try:
        alphabet = Alphabet.of(symbols)
    except InputError as e:
        raise SpecFileError(str(e), ln) from None

    if len(lines) < 2:
        raise SpecFileError("expected a presentation line after the alphabet", ln)
    ln2, body = lines[1]

    if body.startswith("regex:"):
        if len(lines) > 2:
            raise SpecFileError("unexpected extra line", lines[2][0])
        pattern = body[len("regex:"):].strip()
        try:
            return LanguageSpec(alphabet, RegexSpec(pattern))
        except InputError as e:
            raise SpecFileError(f"bad regex: {e}", ln2) from None

    if body.startswith("builtin:"):
        if len(lines) > 2:
            raise SpecFileError("unexpected extra line", lines[2][0])
        fields = body[len("builtin:"):].split()
        if not fields:
            raise SpecFileError("builtin needs a name", ln2)
        try:
            params = tuple(int(f) for f in fields[1:])
        except ValueError:
            raise SpecFileError("builtin parameters must be integers", ln2) from None
        return LanguageSpec(alphabet, OracleSpec(fields[0], params))

    if body.startswith("dfa:"):
        fields = body[len("dfa:"):].split()
        if len(fields) != 3:
            raise SpecFileError("expected 'dfa: <n> <initial> <finals csv|->'", ln2)
        try:
            n, initial = int(fields[0]), int(fields[1])
            finals = parse_finals(fields[2])
        except (ValueError, InputError):
            raise SpecFileError("bad dfa header", ln2) from None
        row_lines = lines[2:]
        if len(row_lines) != n:
            at = row_lines[n][0] if len(row_lines) > n else (row_lines[-1][0] if row_lines else ln2)
            raise SpecFileError(f"expected {n} transition rows, got {len(row_lines)}", at)
        rows = []
        for rn, row_text in row_lines:
            parts = row_text.split()
            if len(parts) != len(alphabet):
                raise SpecFileError(
                    f"expected {len(alphabet)} targets (one per symbol), got {len(parts)}", rn
                )
            try:
                rows.append(tuple(int(p) for p in parts))
            except ValueError:
                raise SpecFileError("transition targets must be integers", rn) from None
        try:
            d = Dfa(alphabet, n, initial, finals, tuple(rows))
        except InputError as e:
            raise SpecFileError(str(e), ln2) from None
        return LanguageSpec(alphabet, DfaSpec(d))

    raise SpecFileError("expected 'regex:', 'builtin:' or 'dfa:'", ln2)


def serialize_spec(spec: LanguageSpec) -> str:
    """Inverse of parse_spec_file (round-trips exactly)."""
    out = [f"alphabet: {''.join(spec.alphabet.symbols)}"]
    p = spec.presentation
    if isinstance(p, RegexSpec):
        out.append(f"regex: {p.pattern}")
    elif isinstance(p, OracleSpec):
        out.append(f"builtin: {p.name}")
    else:
        d = p.dfa
        finals = ",".join(str(q) for q in sorted(d.finals)) or "-"
        out.append(f"dfa: {d.n_states} {d.initial} {finals}")
        for row in d.rows:
            out.append(" ".join(str(t) for t in row))
    return "\n".join(out) + "\n"
