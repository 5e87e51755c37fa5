"""Seeded job lists of the three workloads.

`build_round(workload, seed, round_no, nerode)` returns the jobs of one
round.  Inputs are made from the seed alone and built through the
program's own parsers and constructors; each job carries a `check` that
compares its output with `reference`, outside the timed region.

Sizes are fixed per job slot; the seed picks languages, random automata,
state numberings and words.  That keeps a round's total work close to
constant across seeds, which is what lets one run's figures be compared
with another's.

Run `python3 perfbench/workloads.py` to regenerate the transformation
pools below.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as R
from reference import Lang, expect

# Generator pairs of transition monoids, found by `find_pool` (see the end
# of this file).  The order of each monoid is in the comment; every job
# conjugates its pair by a seeded permutation of the states, which keeps
# the order and the cost and changes everything else.
POOL_1000 = [  # 8 states, order 1000..1024 (Cayley table >= 10^6 cells)
    ((3, 6, 6, 7, 2, 2, 5, 4), (6, 4, 6, 3, 0, 6, 7, 7)),  # 1006
    ((5, 6, 0, 4, 7, 7, 3, 1), (1, 2, 3, 6, 6, 6, 1, 3)),  # 1020
    ((1, 0, 5, 6, 0, 6, 2, 2), (7, 4, 6, 1, 2, 1, 2, 6)),  # 1017
    ((1, 6, 7, 3, 4, 6, 0, 3), (2, 2, 6, 0, 3, 4, 6, 6)),  # 1024
    ((4, 7, 7, 2, 7, 4, 1, 6), (6, 3, 4, 2, 0, 4, 5, 5)),  # 1012
    ((6, 5, 7, 0, 7, 6, 3, 7), (2, 4, 2, 3, 6, 2, 7, 5)),  # 1015
    ((3, 7, 6, 7, 7, 1, 2, 1), (5, 3, 0, 4, 5, 6, 2, 4)),  # 1000
    ((3, 1, 5, 7, 4, 2, 3, 6), (5, 7, 6, 2, 4, 2, 2, 0)),  # 1017
]
POOL_420 = [  # 7 states, order 416..439
    ((5, 0, 6, 6, 6, 0, 1), (3, 0, 6, 1, 0, 1, 4)),  # 439
    ((1, 4, 0, 1, 6, 2, 1), (4, 4, 6, 6, 1, 0, 2)),  # 422
    ((6, 3, 4, 5, 5, 4, 3), (1, 0, 6, 5, 1, 3, 5)),  # 416
    ((6, 5, 6, 2, 5, 0, 6), (3, 0, 3, 4, 1, 6, 2)),  # 427
    ((3, 5, 4, 5, 1, 3, 6), (5, 3, 3, 0, 0, 2, 3)),  # 419
    ((6, 6, 2, 0, 5, 5, 2), (1, 4, 3, 3, 2, 6, 6)),  # 429
]
POOL_200 = [  # 6 states, order 181..206
    ((3, 2, 5, 4, 5, 2), (0, 2, 5, 0, 3, 1)),  # 184
    ((1, 5, 5, 4, 0, 1), (3, 0, 4, 4, 2, 0)),  # 203
    ((2, 1, 4, 5, 5, 4), (2, 4, 5, 0, 4, 0)),  # 203
    ((0, 0, 1, 5, 2, 4), (1, 5, 2, 4, 2, 2)),  # 186
    ((2, 5, 5, 0, 4, 1), (2, 0, 4, 5, 0, 4)),  # 206
    ((1, 1, 5, 4, 3, 4), (5, 2, 5, 2, 1, 0)),  # 181
]


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    fault: bool = False  # fails today because of a known program fault


class Inputs:
    """Seeded input makers shared by the workloads."""

    def __init__(self, nerode, rng: random.Random):
        self.N = nerode
        self.rng = rng
        self.used: set[str] = set()
        self.decks: dict[tuple, list[str]] = {}

    def fresh(self, make: Callable[[], str]) -> str:
        for _ in range(1000):
            text = make()
            if text not in self.used:
                self.used.add(text)
                return text
        raise RuntimeError("could not make a fresh input")

    # -- languages, each built through parse_spec_file

    def lang(self, kind: str, symbols: str, payload, text: str):
        spec = self.N.parse_spec_file(text)
        return spec, Lang(kind, symbols, payload, text)

    def regex(self, symbols: str, branches: int, atoms: int):
        rng = self.rng

        def atom(stars: list[int]) -> str:
            r = rng.random()
            if r < 0.45 or (r >= 0.7 and stars[0] >= 2):
                return rng.choice(symbols)
            if r < 0.7:
                return "(" + "|".join(rng.sample(symbols, 2)) + ")"
            stars[0] += 1
            size = rng.randint(1, 3)
            body = {"".join(rng.choice(symbols) for _ in range(size)) for _ in range(rng.randint(1, 2))}
            # words of one length form a prefix code, so `re` backtracks little
            return "(" + "|".join(sorted(body)) + ")*"

        def make() -> str:
            out = []
            for _ in range(branches):
                stars = [0]
                out.append("".join(atom(stars) for _ in range(atoms)))
            return "|".join(out)

        pattern = self.fresh(make)
        return self.lang("regex", symbols, pattern, f"alphabet: {symbols}\nregex: {pattern}\n")

    def keywords(self, symbols: str, count: int, length: int):
        """Words ending in one of `count` random keywords: the derivative
        automaton has about count * length states whatever the keywords."""
        rng = self.rng

        def make() -> str:
            keys = sorted({"".join(rng.choice(symbols) for _ in range(length)) for _ in range(count)})
            return "(" + "|".join(symbols) + ")*(" + "|".join(keys) + ")"

        pattern = self.fresh(make)
        return self.lang("regex", symbols, pattern, f"alphabet: {symbols}\nregex: {pattern}\n")

    def word_union(self, symbols: str, count: int, length: int):
        """A finite union of random words: its syntactic monoid is small
        (about the number of factors of the words), whatever the words."""

        def make() -> str:
            return "|".join(sorted({self.word(symbols, length) for _ in range(count)}))

        pattern = self.fresh(make)
        return self.lang("regex", symbols, pattern, f"alphabet: {symbols}\nregex: {pattern}\n")

    def unary_regex(self, symbol: str):
        rng = self.rng

        def make() -> str:
            parts = []
            for _ in range(2):
                q, p = rng.randint(0, 6), rng.randint(2, 7)
                parts.append(symbol * q + "(" + symbol * p + ")*")
            return "|".join(parts)

        pattern = self.fresh(make)
        return self.lang("regex", symbol, pattern, f"alphabet: {symbol}\nregex: {pattern}\n")

    def builtin(self, name: str, symbols: str):
        return self.lang("builtin", symbols, name, f"alphabet: {symbols}\nbuiltin: {name}\n")

    def deal(self, options: tuple[str, ...]) -> str:
        """Next option from a seeded deck that holds each option once, so
        that every option is used equally often within a round."""
        deck = self.decks.setdefault(options, [])
        if not deck:
            deck.extend(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def binary_builtin(self):
        name = self.deal(("anbn", "dyck1", "even_length"))
        return self.builtin(name, self.rng.choice(["ab", "ba"]))

    def unary_builtin(self):
        name = self.deal(("champernowne_unary", "unary_powers_of_two"))
        return self.builtin(name, self.rng.choice("axyz"))

    # -- automata

    def random_dfa(self, n: int, symbols: str = "ab") -> R.RefDfa:
        rng = self.rng
        rows = [tuple(rng.randrange(n) for _ in symbols) for _ in range(n)]
        finals = {s for s in range(n) if rng.random() < 0.5}
        return R.RefDfa(symbols, 0, finals, rows)

    def pool_dfa(self, pool, minimal: bool) -> R.RefDfa:
        """A pool pair conjugated by a seeded state permutation.  With
        `minimal`, initial state and finals are drawn until every state is
        reachable and no two are equivalent, so that the syntactic monoid
        is the whole transition monoid."""
        rng = self.rng
        for _ in range(1000):
            gens = rng.choice(pool)
            n = len(gens[0])
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [None] * n
            for s in range(n):
                rows[perm[s]] = tuple(perm[g[s]] for g in gens)
            d = R.RefDfa("ab", rng.randrange(n), {s for s in range(n) if rng.random() < 0.5}, rows)
            if not minimal:
                return d
            reach = R.bfs_order(d)
            if len(reach) == n and len(set(R.moore_classes(d, reach).values())) == n:
                return d
        raise RuntimeError("no minimal presentation found in the pool")

    def redundant(self, base: R.RefDfa) -> R.RefDfa:
        """A trim DFA for L(base) with about twice the states: the
        reachable part of base x (number of a's mod 2), randomly numbered."""
        start = (base.initial, 0)
        order = [start]
        index = {start: 0}
        i = 0
        while i < len(order):
            s, c = order[i]
            for k, t in enumerate(base.rows[s]):
                nxt = (t, (c + 1) % 2 if k == 0 else c)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
            i += 1
        perm = list(range(len(order)))
        self.rng.shuffle(perm)
        rows = [None] * len(order)
        for j, (s, c) in enumerate(order):
            succ = []
            for k, t in enumerate(base.rows[s]):
                succ.append(perm[index[(t, (c + 1) % 2 if k == 0 else c)]])
            rows[perm[j]] = tuple(succ)
        finals = {perm[j] for j, (s, _) in enumerate(order) if s in base.finals}
        return R.RefDfa(base.symbols, perm[0], finals, rows)

    def word(self, symbols: str, length: int) -> str:
        return "".join(self.rng.choice(symbols) for _ in range(length))


def dfa_text(d: R.RefDfa) -> str:
    finals = ",".join(str(q) for q in sorted(d.finals)) or "-"
    lines = [f"alphabet: {d.symbols}", f"dfa: {d.n} {d.initial} {finals}"]
    lines += [" ".join(map(str, row)) for row in d.rows]
    return "\n".join(lines) + "\n"


def program_dfa(N, d: R.RefDfa):
    return N.Dfa(N.Alphabet.of(d.symbols), d.n, d.initial, frozenset(d.finals), tuple(d.rows))


# ---------------------------------------------------------------- checks


def check_classes(a, lang: Lang, d: int, h: int) -> None:
    bits, witnesses, transitions = R.residual_classes(lang, d, h)
    expect(len(a.classes) == len(bits), f"{len(a.classes)} classes, reference {len(bits)}")
    expect(["".join(map(str, p.bits)) for p in a.classes] == bits, "class bits differ")
    expect(list(a.witnesses) == witnesses, "class witnesses differ")
    expect(set(a.accepting) == {i for i, b in enumerate(bits) if b[0] == "1"}, "accepting classes")
    got = [[(tr.target, tr.consistent) for tr in row] for row in a.transitions]
    expect(got == transitions, "quotient transitions differ")


def check_stabilization(v, lang: Lang, d: int, h: int) -> None:
    point = R.point_maker(lang, d + 1)
    coarse = R.residual_classes(lang, d, h, point)
    fine = R.residual_classes(lang, d + 1, h, point)
    counts = (len(coarse[0]), len(fine[0]))
    expect(tuple(v.counts) == counts, f"counts {v.counts}, reference {counts}")
    steady = counts[0] == counts[1] and all(
        t is not None and ok for c in (coarse, fine) for row in c[2] for t, ok in row
    )
    expect(v.stabilized == steady, "stabilization verdict")
    if steady:
        p = R.dfa_of_program(v.proposed)
        expect(p.n == counts[0], "proposed DFA size")
        for w in R.words(lang.symbols, h):
            expect((p.run(w) in p.finals) == bool(lang.member(w)), f"proposed DFA on {w!r}")


def check_closure(rep, lang: Lang, d: int, h: int) -> None:
    got = {("".join(map(str, p.point.bits)), p.first_length, p.last_length, p.count, p.recurrent) for p in rep.patterns}
    expect(len(got) == len(rep.patterns), "duplicate closure patterns")
    expect(got == R.closure_patterns(lang, d, h), "closure patterns differ")


def check_contexts(t, lang: Lang, m: int, n: int, bound: int) -> None:
    reps, sizes = R.context_partition(lang, m, n, bound)
    expect(list(t.representatives) == reps, "context class representatives differ")
    expect(list(t.sizes) == sizes, "context class sizes differ")


def check_growth(g, lang: Lang, kmax: int, bound: int) -> None:
    ref = [len(reps) for reps, _ in R.context_partitions(lang, kmax, bound)]
    expect(list(g.counts) == ref, f"growth counts {g.counts}, reference {ref}")


def check_regex_dfa(d: R.RefDfa, lang: Lang, max_len: int) -> None:
    """Minimal, canonically numbered, and the language of `re`."""
    expect(R.bfs_order(d) == list(range(d.n)), "states not numbered by length-lex access")
    expect(len(set(R.moore_classes(d, list(range(d.n))).values())) == d.n, "DFA is not minimal")
    for w in R.words(lang.symbols, max_len):
        expect((d.run(w) in d.finals) == bool(lang.member(w)), f"DFA and re differ on {w!r}")


def check_minimized(out: R.RefDfa, src: R.RefDfa) -> None:
    expect(R.same_dfa(out, R.canonical_minimal(src)), "not the canonical minimal DFA")
    expect(R.equivalent_from(out, out.initial, src, src.initial), "minimal DFA changes the language")


def check_morphism_map(mapping, source: R.RefDfa, target: R.RefDfa) -> None:
    expect(R.same_dfa(target, R.canonical_minimal(source)), "target is not the minimal DFA")
    expect(len(mapping) == source.n, "map does not cover the source")
    for s in range(source.n):
        expect(R.equivalent_from(source, s, target, mapping[s]), f"state {s} maps to a wrong residual")


def check_hom_map(mapping, source_witnesses, target_elements, target: R.RefDfa) -> None:
    """Element i, named by its witness word, must map to that word's action
    on the target DFA."""
    for i, w in enumerate(source_witnesses):
        expect(tuple(target_elements[mapping[i]]) == R.action(target, w), f"element {i} maps to a wrong action")


def check_hom_json(p: dict, source: R.RefDfa, base: R.RefDfa) -> None:
    """A monoid-hom payload from the transition monoid of `source` onto the
    syntactic monoid of L(base): element i, named by its witness word, maps
    to that word's action on the canonical minimal DFA."""
    _, witnesses = R.closure(source.n, source.generators(), source.symbols)
    minimal = R.canonical_minimal(base)
    target, _ = R.closure(minimal.n, minimal.generators(), minimal.symbols)
    index = {e: i for i, e in enumerate(target)}
    expect(p.get("ignored", []) == [] and p["source_order"] == len(witnesses), "source monoid")
    expect(p["target_order"] == len(target), "target order")
    for i, w in enumerate(witnesses):
        expect(p["map"][i] == index[R.action(minimal, w)], f"element {i} maps wrongly")


def expect_raised(out, name: str) -> Exception:
    expect(isinstance(out, Exception) and type(out).__name__ == name, f"expected {name}, got {out!r}")
    return out


# ---------------------------------------------------------------- quotients


def quotients_round(N, inp: Inputs) -> list[Job]:
    jobs: list[Job] = []

    def add(kind, run, check):
        jobs.append(Job(kind, run, check))

    def nerode_job(spec, lang, d, h):
        add("nerode_classes", lambda: N.nerode_classes(spec, d, h), lambda a: check_classes(a, lang, d, h))

    def stab_job(spec, lang, d, h):
        add("stabilization_check", lambda: N.stabilization_check(spec, d, h),
            lambda v: check_stabilization(v, lang, d, h))

    def closure_job(spec, lang, d, h):
        add("orbit_closure_report", lambda: N.orbit_closure_report(spec, d, h),
            lambda r: check_closure(r, lang, d, h))

    def contexts_job(spec, lang, m, n, b):
        add("context_classes", lambda: N.context_classes(spec, m, n, b),
            lambda t: check_contexts(t, lang, m, n, b))

    def growth_job(spec, lang, k, b):
        add("growth_profile", lambda: N.growth_profile(spec, k, b), lambda g: check_growth(g, lang, k, b))

    def count_job(spec, lang, d, h):
        def check(c):
            ref = R.window_count(lang.unary_bits(h + d + 1), d, h)
            expect(c == ref, f"{c} residual windows, reference {ref}")

        add("unary_residual_count", lambda: N.unary_residual_count(spec, d, h), check)

    def density_job(spec, lang, k, n):
        def check(rep):
            ref = R.missing_patterns(lang.unary_bits(n), k)
            expect(list(rep.missing) == ref, "missing patterns differ")

        add("density_check", lambda: N.density_check(N.BitStream(spec), k, n), check)

    # the large one: a χ table of every word up to length 4 + 12 + 1 = 17
    nerode_job(*inp.regex("ab", 2, 6), 4, 12)
    for _ in range(2):
        nerode_job(*inp.regex("ab", 2, 6), 3, 10)
    for _ in range(3):
        nerode_job(*inp.binary_builtin(), 3, 10)
    for _ in range(2):
        stab_job(*inp.binary_builtin(), 3, 10)
        stab_job(*inp.regex("ab", 2, 6), 3, 9)
    for _ in range(2):
        closure_job(*inp.binary_builtin(), 3, 11)
    closure_job(*inp.regex("ab", 2, 6), 3, 11)
    for _ in range(2):
        contexts_job(*inp.binary_builtin(), 2, 2, 8)
    contexts_job(*inp.regex("ab", 2, 6), 2, 2, 9)
    for _ in range(2):
        growth_job(*inp.binary_builtin(), 3, 8)
    growth_job(*inp.regex("ab", 2, 6), 3, 8)
    for _ in range(2):
        count_job(*inp.unary_builtin(), 20, 2500)
    count_job(*inp.unary_regex(inp.rng.choice("axyz")), 20, 2000)
    density_job(*inp.builtin("champernowne_unary", inp.rng.choice("axyz")), 10, 4000)
    density_job(*inp.unary_regex(inp.rng.choice("axyz")), 6, 3000)
    density_job(*inp.builtin("unary_powers_of_two", inp.rng.choice("axyz")), 6, 3000)
    return jobs


# ---------------------------------------------------------------- kernels


def kernels_round(N, inp: Inputs) -> list[Job]:
    jobs: list[Job] = []
    rng = inp.rng
    ctx: dict = {}

    def add(kind, run, check):
        jobs.append(Job(kind, run, check))

    def compile_job(spec, lang, max_len):
        add("compile_regex", lambda: N.compile_regex(lang.payload, spec.alphabet),
            lambda d: check_regex_dfa(R.dfa_of_program(d), lang, max_len))

    def minimize_job(n):
        ref = inp.random_dfa(n)
        d = program_dfa(N, ref)
        add("minimize_dfa", lambda: N.minimize_dfa(d), lambda m: check_minimized(R.dfa_of_program(m), ref))

    def monoid_job(ref, key=None):
        d = program_dfa(N, ref)
        check_rng = random.Random(rng.random())

        def run():
            m = N.transition_monoid(d)
            if key:
                ctx[key] = m
            return m

        add("transition_monoid", run,
            lambda m: R.check_monoid(m.elements, m.witnesses, m.table, m.generators, ref, check_rng, 2000))

    def syntactic_job(ref):
        spec = N.LanguageSpec(N.Alphabet.of(ref.symbols), N.DfaSpec(program_dfa(N, ref)))
        check_rng = random.Random(rng.random())

        def check(out):
            m, finals = out
            minimal = R.canonical_minimal(ref)
            els = R.check_monoid(m.elements, m.witnesses, m.table, m.generators, minimal, check_rng, 2000)
            want = {i for i, e in enumerate(els) if e[minimal.initial] in minimal.finals}
            expect(set(finals) == want, "final element set differs")

        add("syntactic_monoid", lambda: N.syntactic_monoid(spec), check)

    def syntactic_regex_job():
        spec, lang = inp.word_union("ab", 6, 6)

        def check(out):
            m, finals = out
            gens = [tuple(m.elements[m.generators[ch]]) for ch in "ab"]
            els, _ = R.closure(m.n_states, gens, "ab")
            expect([tuple(e) for e in m.elements] == els, "elements are not the closure of the generators")
            for i, w in enumerate(m.witnesses):
                expect((i in finals) == bool(lang.member(w)), f"final set wrong at {w!r}")

        add("syntactic_monoid", lambda: N.syntactic_monoid(spec), check)

    def morphism_chain():
        base = inp.pool_dfa(POOL_200, minimal=True)
        src = inp.redundant(base)
        d = program_dfa(N, src)
        spec = N.LanguageSpec(N.Alphabet.of("ab"), N.DfaSpec(program_dfa(N, base)))
        key = object()

        def run_morphism():
            phi = N.minimization_morphism(d, spec)
            ctx[key] = phi
            return phi, N.check_morphism(phi)

        def check_morphism(out):
            phi, report = out
            expect(report.passed, "check_morphism reports violations on a valid morphism")
            check_morphism_map(phi.mapping, src, R.dfa_of_program(phi.target))

        def check_induced(h):
            target = R.canonical_minimal(src)
            src_elements, src_witnesses = R.closure(src.n, src.generators(), src.symbols)
            expect([tuple(e) for e in h.source.elements] == src_elements, "source monoid elements")
            expect([tuple(e) for e in h.target.elements] == R.closure(target.n, target.generators(), "ab")[0],
                   "target monoid elements")
            check_hom_map(h.mapping, src_witnesses, h.target.elements, target)

        add("minimization_morphism", run_morphism, check_morphism)
        add("induced_hom", lambda: N.induced_hom(ctx[key]), check_induced)

    def recognition_chain(bound):
        base = inp.pool_dfa(POOL_200, minimal=True)
        src = inp.redundant(base)
        spec = N.LanguageSpec(N.Alphabet.of("ab"), N.DfaSpec(program_dfa(N, base)))
        lang = Lang("dfa", "ab", base, "")
        key = object()
        monoid_job(src, key)
        flip = rng.randrange(1, 6)
        minimal = R.canonical_minimal(base)

        def finals_of(m, wrong):
            f = {i for i, e in enumerate(m.elements) if e[src.initial] in src.finals}
            return f ^ {flip} if wrong else f

        for wrong in (False, True):
            def run_verify(wrong=wrong):
                m = ctx[key]
                return N.verify_recognition(m, m.generators, finals_of(m, wrong), spec, bound)

            def check_verify(rep, wrong=wrong):
                m = ctx[key]
                ref = R.recognition_violations(src, m.elements, finals_of(m, wrong), lang, bound)
                expect([v.witness for v in rep.violations] == ref, "violations differ")
                expect(bool(ref) == wrong, "wrong final set not caught within the bound")

            add("verify_recognition", run_verify, check_verify)

        for wrong in (False, True):
            def run_hom(wrong=wrong):
                m = ctx[key]
                try:
                    return N.minimal_monoid_hom(m, m.generators, finals_of(m, wrong), spec, bound)
                except N.RecognitionError as e:  # the expected outcome for a wrong final set
                    return e

            def check_hom(h, wrong=wrong):
                m = ctx[key]
                if wrong:
                    e = expect_raised(h, "RecognitionError")
                    ref = R.recognition_violations(src, m.elements, finals_of(m, True), lang, bound)
                    expect(e.witness == ref[0], "recognition error names a wrong witness")
                    return
                els, wits = R.closure(src.n, src.generators(), src.symbols)
                expect(list(h.ignored) == [], "no element of a transition monoid is ungenerated")
                index = {tuple(e): i for i, e in enumerate(m.elements)}
                check_hom_map([h.mapping[index[e]] for e in els], wits, h.target.elements, minimal)

            add("minimal_monoid_hom", run_hom, check_hom)

    for _ in range(10):
        compile_job(*inp.keywords("abc", 8, 6), 7)
    for _ in range(4):
        compile_job(*inp.regex("ab", 2, 6), 10)
    for n in (600, 1200, 2400):
        minimize_job(n)
    for _ in range(2):
        monoid_job(inp.pool_dfa(POOL_1000, minimal=False))
    syntactic_job(inp.pool_dfa(POOL_1000, minimal=True))
    for _ in range(2):
        syntactic_regex_job()
    for _ in range(2):
        morphism_chain()
    recognition_chain(12)
    return jobs


# ---------------------------------------------------------------- cli


class Cli:
    """One in-process `nerode.cli.main` call with stdout and stderr captured."""

    def __init__(self):
        self.module = sys.modules["nerode.cli"]

    def __call__(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = self.module.main(argv)
        finally:
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue()


def parse_dot(text: str):
    """(node shapes and labels, edges {(src, dst, style): symbols}, start)."""
    nodes, edges, start = {}, {}, None
    lines = text.splitlines()
    expect(lines[0] == "digraph automaton {" and lines[-1] == "}", "DOT graph frame")
    for line in lines[1:-1]:
        line = line.strip()
        m = re.fullmatch(r'q(\d+) \[shape=(\w+) label="(.*)"\];', line)
        if m:
            nodes[int(m.group(1))] = (m.group(2), m.group(3))
            continue
        m = re.fullmatch(r'q(\d+) -> (q\d+|__unknown) \[label="([^"]*)"( style=dashed)?\];', line)
        if m:
            dst = None if m.group(2) == "__unknown" else int(m.group(2)[1:])
            edges[(int(m.group(1)), dst, bool(m.group(4)))] = sorted(m.group(3).split(","))
            continue
        m = re.fullmatch(r"__start -> q(\d+);", line)
        if m:
            start = int(m.group(1))
            continue
        expect(line in ("rankdir=LR;", '__start [shape=point label=""];', '__unknown [shape=none label="?"];'),
               f"unexpected DOT line {line!r}")
    return nodes, edges, start


def dot_of(n, accepting, labels, edge_list):
    """What a DOT rendering must say: shapes, labels and grouped edges."""
    nodes = {i: ("doublecircle" if i in accepting else "circle", f"{i}:{labels[i] or 'ε'}") for i in range(n)}
    edges: dict = {}
    for src, ch, dst, ok in edge_list:
        edges.setdefault((src, dst, not ok), []).append(ch)
    return nodes, {k: sorted(v) for k, v in edges.items()}


def cli_round(N, inp: Inputs, workdir: Path, cli: Cli) -> list[Job]:
    jobs: list[Job] = []
    rng = inp.rng
    counter = [0]

    def inline(text: str) -> str:
        return " / ".join(line for line in text.splitlines() if line)

    def spec_file(text: str) -> str:
        counter[0] += 1
        path = workdir / f"spec-{counter[0]}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(argv, check, code=0, fault=False):
        def full_check(out):
            got, stdout, stderr = out
            if code == 2:
                lines = stderr.splitlines()
                expect(got == 2 and len(lines) == 1 and lines[0].startswith("error:")
                       and "Traceback" not in stderr and stdout == "", f"expected one error line and exit 2, got {got}")
            else:
                expect(got == code and stderr == "", f"exit {got} (expected {code}), stderr {stderr[:200]!r}")
            check(stdout)

        jobs.append(Job("cli " + argv[0] + (" dot" if "dot" in argv else ""), lambda: cli(argv), full_check, fault))

    def as_json(check):
        return lambda stdout: check(json.loads(stdout))

    def rx():
        spec, lang = inp.regex("ab", 2, 6)
        return inline(lang.text), lang

    def bi():
        spec, lang = inp.binary_builtin()
        return inline(lang.text), lang

    def dfa_spec(ref, file=False):
        text = dfa_text(ref)
        return spec_file(text) if file else inline(text)

    # membership
    s, lang = rx()
    w = inp.word("ab", 20)
    add(["membership", "--spec", s, "--word", w],
        as_json(lambda p, lang=lang, w=w: expect(p["member"] == lang.member(w), "membership")))
    s, lang = bi()
    h = rng.randint(4, 9)
    w2 = "a" * h + "b" * h
    add(["membership", "--spec", s, "--word", w2],
        as_json(lambda p, lang=lang: expect(p["member"] == lang.member(w2), "membership")))

    # minimize: regex, a DFA file, DOT
    for _ in range(2):
        s, lang = rx()
        add(["minimize", "--spec", s], as_json(lambda p, lang=lang: check_regex_dfa(R.dfa_of_json(p), lang, 10)))
    big = inp.random_dfa(300)
    add(["minimize", "--spec", dfa_spec(big, file=True)],
        as_json(lambda p: check_minimized(R.dfa_of_json(p), big)))
    mid = inp.random_dfa(120)

    def check_min_dot(text):
        m = R.canonical_minimal(mid)
        acc = R.access_words(m)
        edges = [(i, ch, m.rows[i][k], True) for i in range(m.n) for k, ch in enumerate(m.symbols)]
        nodes, edge_map, start = parse_dot(text)
        expect((nodes, edge_map) == dot_of(m.n, m.finals, acc, edges) and start == 0, "minimal DFA DOT differs")

    add(["minimize", "--spec", dfa_spec(mid, file=True), "--format", "dot"], check_min_dot)

    # residual
    for s, lang in (bi(), rx()):
        w3 = inp.word("ab", rng.randint(3, 8))

        def check_res(p, lang=lang, w3=w3):
            ref = "".join(str(lang.member(w3 + u)) for u in R.words(lang.symbols, 6))
            expect(p["bits"] == ref, "residual bits differ")

        add(["residual", "--spec", s, "--word", w3, "--depth", "6"], as_json(check_res))

    # nerode: JSON on a builtin and a regex, DOT on a regex
    def check_nerode_json(p, lang, d, h):
        bits, witnesses, transitions = R.residual_classes(lang, d, h)
        expect([c["bits"] for c in p["classes"]] == bits, "class bits differ")
        expect([c["witness"] for c in p["classes"]] == witnesses, "class witnesses differ")
        expect([c["accepting"] for c in p["classes"]] == [b[0] == "1" for b in bits], "accepting classes")
        got = [(t["to"], t["consistent"]) for t in p["transitions"]]
        expect(got == [tr for row in transitions for tr in row], "transitions differ")

    for s, lang in (bi(), rx()):
        add(["nerode", "--spec", s, "--depth", "3", "--horizon", "9"],
            as_json(lambda p, lang=lang: check_nerode_json(p, lang, 3, 9)))
    s, lang = rx()

    def check_nerode_dot(text, lang=lang):
        bits, witnesses, transitions = R.residual_classes(lang, 2, 8)
        edges = [(i, ch, t, ok) for i, row in enumerate(transitions) for ch, (t, ok) in zip(lang.symbols, row)]
        accepting = {i for i, b in enumerate(bits) if b[0] == "1"}
        nodes, edge_map, start = parse_dot(text)
        expect((nodes, edge_map) == dot_of(len(bits), accepting, witnesses, edges) and start == 0,
               "quotient DOT differs")

    add(["nerode", "--spec", s, "--depth", "2", "--horizon", "8", "--format", "dot"], check_nerode_dot)

    # stabilize, closure
    def check_stab_json(p, lang, d, h):
        point = R.point_maker(lang, d + 1)
        coarse = R.residual_classes(lang, d, h, point)
        fine = R.residual_classes(lang, d + 1, h, point)
        counts = [len(coarse[0]), len(fine[0])]
        expect(p["counts"] == counts, "stabilization counts differ")
        steady = counts[0] == counts[1] and all(t is not None and ok for c in (coarse, fine) for row in c[2] for t, ok in row)
        expect(p["stabilized"] == steady, "stabilization verdict")
        if steady:
            prop = R.dfa_of_json(p["proposed"])
            for w in R.words(lang.symbols, h):
                expect((prop.run(w) in prop.finals) == bool(lang.member(w)), "proposed DFA")

    for s, lang in (bi(), rx()):
        add(["stabilize", "--spec", s, "--depth", "2", "--horizon", "8"],
            as_json(lambda p, lang=lang: check_stab_json(p, lang, 2, 8)))
    for s, lang in (bi(), rx()):
        def check_closure_json(p, lang=lang):
            got = {(q["bits"], q["first"], q["last"], q["count"], q["recurrent"]) for q in p["patterns"]}
            expect(got == R.closure_patterns(lang, 3, 10), "closure patterns differ")

        add(["closure", "--spec", s, "--depth", "3", "--horizon", "10"], as_json(check_closure_json))

    # monoid, syntactic, idempotents: the whole table is printed or walked
    def check_monoid_json(p, ref, seed):
        els = [tuple(e["images"]) for e in p["elements"]]
        R.check_monoid(els, [e["witness"] for e in p["elements"]], p["table"], p["generators"], ref,
                       random.Random(seed), 2000)
        return els

    ref_m = inp.pool_dfa(POOL_420, minimal=False)
    seed_m = rng.random()
    add(["monoid", "--spec", dfa_spec(ref_m, file=True)], as_json(lambda p: check_monoid_json(p, ref_m, seed_m)))

    # a minimal DFA handed over in its canonical numbering
    ref_s = R.canonical_minimal(inp.pool_dfa(POOL_420, minimal=True))
    seed_s = rng.random()

    def check_syn(p):
        els = check_monoid_json(p, ref_s, seed_s)
        want = sorted(i for i, e in enumerate(els) if e[ref_s.initial] in ref_s.finals)
        expect(p["final_elements"] == want, "final elements differ")

    add(["syntactic", "--spec", dfa_spec(ref_s, file=True)], as_json(check_syn))
    spec, lang = inp.word_union("ab", 6, 6)
    s = inline(lang.text)

    def check_syn_rx(p, lang=lang):
        gens = [tuple(p["elements"][p["generators"][ch]]["images"]) for ch in "ab"]
        els, _ = R.closure(p["states"], gens, "ab")
        expect([tuple(e["images"]) for e in p["elements"]] == els, "elements are not the closure")
        finals = set(p["final_elements"])
        for e in p["elements"]:
            expect((e["index"] in finals) == bool(lang.member(e["witness"])), "final set")

    add(["syntactic", "--spec", s], as_json(check_syn_rx))

    ref_i = inp.pool_dfa(POOL_420, minimal=False)

    def check_idem(p):
        els, _ = R.closure(ref_i.n, ref_i.generators(), "ab")
        index = {e: i for i, e in enumerate(els)}
        expect(p["order"] == len(els), "order")
        for item, s_el in zip(p["items"], els):
            f, k = s_el, 1
            while tuple(f[x] for x in f) != f:
                f, k = tuple(s_el[x] for x in f), k + 1
            expect(item["idempotent"] == index[f] and item["exponent"] == k, f"idempotent of {item['element']}")

    add(["idempotents", "--spec", dfa_spec(ref_i, file=True)], as_json(check_idem))

    # contexts, growth
    for (s, lang), (m, n, b) in ((bi(), (1, 1, 8)), (rx(), (2, 2, 7))):
        def check_ctx(p, lang=lang, m=m, n=n, b=b):
            reps, sizes = R.context_partition(lang, m, n, b)
            expect([c["representative"] for c in p["classes"]] == reps, "representatives")
            expect([c["size"] for c in p["classes"]] == sizes, "sizes")

        add(["contexts", "--spec", s, "--left", str(m), "--right", str(n), "--bound", str(b)], as_json(check_ctx))
    for (s, lang), (k, b) in ((bi(), (3, 7)), (rx(), (2, 8))):
        def check_gr(p, lang=lang, k=k, b=b):
            ref = [len(reps) for reps, _ in R.context_partitions(lang, k, b)]
            expect(p["counts"] == ref, "growth counts")

        add(["growth", "--spec", s, "--k", str(k), "--bound", str(b)], as_json(check_gr))

    # morphism, induced-hom
    base = inp.pool_dfa(POOL_200, minimal=True)
    src = inp.redundant(base)
    s_base, s_src = dfa_spec(base), dfa_spec(src)

    def check_morph(p):
        expect(p["report"]["passed"], "report")
        check_morphism_map(p["map"], src, R.dfa_of_json(p["target"]))

    add(["morphism", "--spec", s_base, "--dfa", s_src], as_json(check_morph))
    base2 = inp.pool_dfa(POOL_200, minimal=True)
    src2 = inp.redundant(base2)

    add(["induced-hom", "--spec", dfa_spec(base2), "--dfa", dfa_spec(src2)],
        as_json(lambda p: check_hom_json(p, src2, base2)))

    # recognize and min-hom, valid and wrong final sets
    base3 = inp.pool_dfa(POOL_200, minimal=True)
    src3 = inp.redundant(base3)
    lang3 = Lang("dfa", "ab", base3, "")
    els3, _ = R.closure(src3.n, src3.generators(), "ab")
    valid = {i for i, e in enumerate(els3) if e[src3.initial] in src3.finals}
    wrong = valid ^ {rng.randrange(1, 6)}
    s_base3, s_src3 = dfa_spec(base3), dfa_spec(src3)
    bound = 10
    for finals in (valid, wrong):
        text = ",".join(map(str, sorted(finals))) or "-"
        ref = R.recognition_violations(src3, els3, finals, lang3, bound)

        def check_rec(p, ref=ref):
            expect([v["witness"] for v in p["violations"]] == ref, "violations differ")

        add(["recognize", "--spec", s_base3, "--monoid", s_src3, "--finals", text, "--bound", str(bound)],
            as_json(check_rec), code=1 if ref else 0)
    add(["min-hom", "--spec", s_base3, "--monoid", s_src3, "--finals", ",".join(map(str, sorted(valid))),
         "--bound", str(bound)], as_json(lambda p: check_hom_json(p, src3, base3)))
    add(["min-hom", "--spec", s_base3, "--monoid", s_src3, "--finals", ",".join(map(str, sorted(wrong))),
         "--bound", str(bound)], lambda out: None, code=2)

    # champernowne, density
    n = rng.randint(4000, 5000)
    add(["champernowne", "--prefix", str(n)],
        lambda out, n=n: expect(out == R.champernowne_bits(n) + "\n", "champernowne prefix differs"))
    n2 = rng.randint(2400, 2600)
    missing = R.missing_patterns(R.champernowne_bits(n2), 8)

    def check_dens(p, missing=missing):
        expect(p["missing"] == missing, "missing patterns differ")

    add(["density", "--k", "8", "--prefix", str(n2)], as_json(check_dens), code=1 if missing else 0)
    spec_u, lang_u = inp.unary_regex("a")
    n3 = rng.randint(1400, 1600)
    missing_u = R.missing_patterns(lang_u.unary_bits(n3), 5)
    add(["density", "--spec", inline(lang_u.text), "--k", "5", "--prefix", str(n3)],
        as_json(lambda p: check_dens(p, missing_u)), code=1 if missing_u else 0)

    # connected
    for _ in range(2):
        ref_c = inp.random_dfa(rng.randint(40, 60))

        def check_conn(p, ref_c=ref_c):
            m = R.canonical_minimal(ref_c)
            back = {s: set() for s in range(m.n)}
            for s, row in enumerate(m.rows):
                for t in row:
                    back[t].add(s)
            seen, todo = {0}, [0]
            while todo:
                for t in back[todo.pop()]:
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            expect(p["states"] == m.n and p["strongly_connected"] == (len(seen) == m.n), "connectivity")

        add(["connected", "--spec", dfa_spec(ref_c, file=True)], as_json(check_conn))

    # two operations that fail today: a regex nested 1200 deep (RecursionError
    # from the recursive parser) and a 5000-character inline spec, longer than
    # NAME_MAX and PATH_MAX (OSError ENAMETOOLONG from Path.is_file).  Both specs are invalid, so exit 2 with one
    # error line is the right outcome however the faults get mended.
    deep = "alphabet: ab\nregex: " + "(" * 1200 + "c" + ")" * 1200 + "\n"
    add(["minimize", "--spec", spec_file(deep)], lambda out: None, code=2, fault=True)
    long_inline = "alphabet: ab / regex: " + "(a|b)" * 1000 + "c"
    add(["minimize", "--spec", long_inline], lambda out: None, code=2, fault=True)
    return jobs


# ---------------------------------------------------------------- entry


WORKLOADS = ("quotients", "kernels", "cli")


def build_round(workload: str, seed: int, round_no: int, N, workdir: Path | None = None, cli=None) -> list[Job]:
    inp = Inputs(N, random.Random(f"{workload}:{seed}:{round_no}"))
    if workload == "quotients":
        return quotients_round(N, inp)
    if workload == "kernels":
        return kernels_round(N, inp)
    if workload == "cli":
        return cli_round(N, inp, workdir, cli)
    raise ValueError(f"unknown workload {workload!r}")


def find_pool(n: int, lo: int, hi: int, count: int, seed: str):
    """Random generator pairs on n states whose monoid order is in [lo, hi]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)]
        ident = tuple(range(n))
        seen, queue = {ident}, [ident]
        for f in queue:
            for g in gens:
                h = tuple(g[x] for x in f)
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
            if len(queue) > hi:
                break
        if lo <= len(queue) <= hi:
            out.append((len(queue), gens))
    return out


if __name__ == "__main__":
    for args in ((8, 1000, 1030, 8, "big2"), (7, 400, 440, 6, "mid"), (6, 180, 210, 6, "small2")):
        for order, gens in find_pool(*args):
            print(order, tuple(gens))
        print()
