"""Byte-identity of the CLI: one sha256 per run of a fixed argv corpus.

`tests/golden.sha256` holds, for every argv of `corpus()`, the digest of the
run's (exit code, stdout, stderr) and short fingerprints of at most
`BLOCKS` consecutive line blocks, so that a mismatch can name the first
lines that differ.  A change that alters output on purpose regenerates the
file in the same commit with

    PYTHONPATH=src python -m tests.test_golden

and says which runs changed and why.  Regenerating it to make an
unexplained difference go away defeats the test.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from nerode import cli, parse_spec_file, presented_dfa, transition_monoid
from tests.corpus import ORACLE_NAMES, REGEX_CORPUS

DIGESTS = Path(__file__).with_name("golden.sha256")
BLOCKS = 64  # line-block fingerprints kept per run
SHOWN = 4  # current lines quoted per mismatch

# POOL_420[0] of the benchmark: a 7-state DFA whose transition monoid has
# order 439, so the Cayley table path prints about 1.9 * 10^5 cells.
BIG = ("ab", 7, 0, "0,3", ((5, 3), (0, 0), (6, 6), (6, 1), (6, 0), (0, 1), (1, 4)))
DFAS = [
    ("a", 3, 0, "0,2", ((1,), (2,), (1,))),
    ("a", 4, 0, "0,2", ((1,), (2,), (3,), (0,))),
    ("ab", 4, 0, "2", ((1, 0), (1, 2), (1, 0), (3, 3))),  # state 3 unreachable
    ("ab", 3, 1, "-", ((1, 2), (2, 0), (0, 1))),
]


def dfa_spec(symbols, n, initial, finals, rows) -> str:
    return " / ".join([f"alphabet: {symbols}", f"dfa: {n} {initial} {finals}",
                       *(" ".join(map(str, row)) for row in rows)])


def _words(symbols: str) -> list[str]:
    return list(dict.fromkeys(["", symbols[0] * 2, symbols * 2, symbols[::-1] * 2 + symbols[0]]))


def _recognizing(s: str) -> str:
    """--finals for the transition monoid of spec s: the elements that send
    the initial state to a final one."""
    d = presented_dfa(parse_spec_file(s.replace(" / ", "\n")))
    m = transition_monoid(d)
    return ",".join(str(i) for i, e in enumerate(m.elements) if e[d.initial] in d.finals) or "-"


def _rational_runs(s: str, symbols: str) -> list[list[str]]:
    finals = _recognizing(s)
    runs = [["membership", "--spec", s, "--word", w] for w in _words(symbols)]
    for fmt in ([], ["--format", "dot"]):
        runs += [
            ["minimize", "--spec", s, *fmt],
            ["nerode", "--spec", s, "--depth", "2", "--horizon", "5", *fmt],
        ]
    return runs + [
        ["residual", "--spec", s, "--word", symbols[-1], "--depth", "3"],
        ["stabilize", "--spec", s, "--depth", "1", "--horizon", "5"],
        ["closure", "--spec", s, "--depth", "2", "--horizon", "6"],
        ["monoid", "--spec", s],
        ["syntactic", "--spec", s],
        ["idempotents", "--spec", s],
        ["connected", "--spec", s],
        ["contexts", "--spec", s, "--left", "1", "--right", "1", "--bound", "5"],
        ["growth", "--spec", s, "--k", "2", "--bound", "5"],
        ["morphism", "--spec", s, "--dfa", s, "--bound", "6"],
        ["induced-hom", "--spec", s, "--dfa", s, "--bound", "6"],
        ["recognize", "--spec", s, "--monoid", s, "--finals", "0", "--bound", "6"],
        ["min-hom", "--spec", s, "--monoid", s, "--finals", "0", "--bound", "6"],
    ] + ([] if finals == "0" else [
        ["recognize", "--spec", s, "--monoid", s, "--finals", finals, "--bound", "6"],
        ["min-hom", "--spec", s, "--monoid", s, "--finals", finals, "--bound", "6"],
    ])


def _oracle_runs(name: str) -> list[list[str]]:
    symbols = "a" if "unary" in name else "ab"
    s = f"alphabet: {symbols} / builtin: {name}"
    parity = "alphabet: ab / dfa: 2 0 0 / 1 1 / 0 0" if symbols == "ab" else "alphabet: a / dfa: 2 0 0 / 1 / 0"
    runs = [["membership", "--spec", s, "--word", w] for w in _words(symbols)]
    runs += [
        ["residual", "--spec", s, "--word", symbols[0], "--depth", "4"],
        ["nerode", "--spec", s, "--depth", "2", "--horizon", "6"],
        ["nerode", "--spec", s, "--depth", "2", "--horizon", "6", "--format", "dot"],
        ["stabilize", "--spec", s, "--depth", "2", "--horizon", "6"],
        ["closure", "--spec", s, "--depth", "2", "--horizon", "7"],
        ["contexts", "--spec", s, "--left", "1", "--right", "2", "--bound", "6"],
        ["growth", "--spec", s, "--k", "2", "--bound", "6"],
        ["minimize", "--spec", s],
        ["monoid", "--spec", s],
        ["morphism", "--spec", s, "--dfa", parity, "--bound", "6"],
        ["recognize", "--spec", s, "--monoid", parity, "--finals", "0", "--bound", "6"],
        ["min-hom", "--spec", s, "--monoid", parity, "--finals", "0", "--bound", "6"],
    ]
    if symbols == "a":
        runs.append(["density", "--spec", s, "--k", "3", "--prefix", "64"])
    return runs


# Library errors with one documented message each (exit 2).
ERRORS = [
    ["membership", "--spec", "alphabet: a / regex: (aa)*", "--word", "ax"],
    ["monoid", "--spec", "alphabet: ab / builtin: nosuch"],
    ["monoid", "--spec", "alphabet: ab / builtin: anbn 3"],
    ["monoid", "--spec", "alphabet: a / builtin: anbn"],
    ["minimize", "--spec", "alphabet: ab / regex: (a"],
    ["minimize", "--spec", "alphabet: ab / regex: a|c"],
    ["minimize", "--spec", "alphabet: ab / regex: " + "(" * 1200 + "a" + ")" * 1200],
    ["minimize", "--spec", "alphabet: a / dfa: 2 0 0 / 1"],
    ["minimize", "--spec", "alphabet: a / dfa: 2 0 0 / 1 / 5"],
    ["minimize", "--spec", "alphabet: ab / frobnicate: 1"],
    ["residual", "--spec", "alphabet: a / regex: a*", "--word", "", "--depth", "-1"],
    ["residual", "--spec", "alphabet: a / regex: a*", "--word", "", "--format", "dot"],
    ["monoid", "--spec", "alphabet: a / regex: a*", "--format", "dot"],
    ["recognize", "--spec", "alphabet: a / regex: a*", "--monoid", "alphabet: a / regex: a*",
     "--finals", "1,,2"],
    ["min-hom", "--spec", "alphabet: a / regex: (aa)*", "--monoid", "alphabet: a / regex: (aa)*",
     "--finals", "-"],
    ["density", "--k", "-1", "--prefix", "10"],
    ["champernowne", "--prefix", "-3"],
]

# Usage errors: argparse's wording differs across Python versions, so only
# the exit code and stdout of these runs are pinned.
USAGE = [
    ["frobnicate"],
    ["minimize"],
    ["minimize", "--spec", "alphabet: a / regex: a", "--bogus", "1"],
    ["residual", "--spec", "alphabet: a / regex: a", "--word", "", "--depth", "x"],
    ["minimize", "--spec", "alphabet: a / regex: a", "--format", "svg"],
]


def corpus() -> list[list[str]]:
    runs = []
    for pattern, symbols, _ in REGEX_CORPUS:
        runs += _rational_runs(f"alphabet: {symbols} / regex: {pattern}", symbols)
    for d in DFAS:
        runs += _rational_runs(dfa_spec(*d), d[0])
    for name in ORACLE_NAMES:
        runs += _oracle_runs(name)
    big = dfa_spec(*BIG)
    runs += [["monoid", "--spec", big], ["syntactic", "--spec", big], ["idempotents", "--spec", big]]
    runs += [["champernowne", "--prefix", n] for n in ("0", "1", "100")]
    runs += [["density", "--k", "3", "--prefix", "40"], ["density", "--k", "4", "--prefix", "60"]]
    return runs + ERRORS + USAGE


def run(argv: list[str]) -> list[str]:
    """The lines of one in-process run: exit code, then stdout and stderr
    split at newlines (a trailing newline leaves a last empty line)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    errors = ["(argparse)"] if argv in USAGE else err.getvalue().split("\n")
    return [f"exit {code}"] + ["1> " + line for line in out.getvalue().split("\n")] + ["2> " + line for line in errors]


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _block(n_lines: int) -> int:
    return max(1, -(-n_lines // BLOCKS))


def fingerprints(lines: list[str], block: int) -> list[str]:
    return [_sha(lines[i:i + block])[:4] for i in range(0, len(lines), block)]


def entry(argv: list[str], lines: list[str]) -> str:
    fps = "".join(fingerprints(lines, _block(len(lines))))
    return f"{_sha(lines)} {len(lines)} {fps} {json.dumps(argv, ensure_ascii=False)}"


def load() -> dict[str, tuple[str, int, list[str]]]:
    """argv (as JSON) -> (sha256, line count, block fingerprints)."""
    table = {}
    for text in DIGESTS.read_text(encoding="utf-8").splitlines():
        if text and not text.startswith("#"):
            sha, n, fps, argv = text.split(" ", 3)
            table[argv] = (sha, int(n), [fps[i:i + 4] for i in range(0, len(fps), 4)])
    return table


def mismatch(argv: list[str], lines: list[str], want: tuple[str, int, list[str]]) -> str | None:
    """None if the run matches its digest, else a message naming the argv
    and the first differing lines (exact when a block is one line)."""
    sha, n, fps = want
    if _sha(lines) == sha:
        return None
    block = _block(n)
    got = fingerprints(lines, block)
    first = next((i for i, (a, b) in enumerate(zip(got, fps)) if a != b), min(len(got), len(fps)))
    lo = first * block
    span = f"line {lo + 1}" if block == 1 else f"lines {lo + 1}-{lo + block}"
    shown = "\n".join(f"    {i + 1}: {line[:160]}" for i, line in enumerate(lines[lo:lo + SHOWN], lo))
    return f"{argv}: first difference at {span} of {n} (now {len(lines)} lines), which now read:\n{shown}"


def write() -> None:
    header = ["# sha256, line count, line-block fingerprints and argv of each golden CLI run",
              "# (see tests/test_golden.py for how to regenerate this file)"]
    DIGESTS.write_text("\n".join(header + [entry(argv, run(argv)) for argv in corpus()]) + "\n",
                       encoding="utf-8")


def test_digest_file_covers_the_corpus():
    argvs = [json.dumps(argv, ensure_ascii=False) for argv in corpus()]
    assert len(set(argvs)) == len(argvs)
    assert set(load()) == set(argvs)


def test_cli_output_matches_golden_digests(monkeypatch):
    monkeypatch.delenv("NERODE_MONOID_CAP", raising=False)
    table = load()
    problems = [msg for argv in corpus()
                if (msg := mismatch(argv, run(argv), table[json.dumps(argv, ensure_ascii=False)]))]
    assert not problems, f"{len(problems)} run(s) differ from tests/golden.sha256:\n" + "\n".join(problems[:10])


def test_mismatch_names_the_first_differing_line():
    lines = ["exit 0", "1> {", '1>   "a": 1,', '1>   "b": 2', "1> }", "1> ", "2> "]
    want = (_sha(lines), len(lines), fingerprints(lines, _block(len(lines))))
    assert mismatch(["x"], lines, want) is None
    changed = lines[:2] + ['1>   "a": 2,'] + lines[3:]
    assert "first difference at line 3 of 7" in mismatch(["x"], changed, want)
    assert "first difference at line 7 of 7 (now 6 lines)" in mismatch(["x"], lines[:-1], want)


if __name__ == "__main__":
    write()
