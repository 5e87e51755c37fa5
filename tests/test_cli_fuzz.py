"""The CLI's exit-code contract under fuzzed, well-formed argv lists.

Each argv names one subcommand of `cli.COMMANDS` and gives values to its
required flags, to --bound (its default of 12 makes the context commands
slow) and to each other flag half the time.  The values come from small
pools: the corpus regexes, the builtins and a few DFAs as specs, ints from
-1 to 6, prefixes up to 60 and awkward --finals lists.  Whatever the input,
the exit code is 0, 1 or 2, no traceback reaches stderr, an exit 2 says why
in one `error:` line or in argparse's usage, JSON output parses and DOT
output is a `digraph`.  The values are small so that most argv lists reach
library code, and the monoid cap is small so that none runs long.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from nerode import cli
from tests.corpus import ORACLE_NAMES, REGEX_CORPUS


def _builtin(name):
    symbols = "a" if "unary" in name else "ab"
    return f"alphabet: {symbols} / builtin: {name}", symbols


# (spec, its symbols)
SPECS = (
    [(f"alphabet: {symbols} / regex: {pattern}", symbols) for pattern, symbols, _ in REGEX_CORPUS]
    + [_builtin(name) for name in ORACLE_NAMES]
    + [
        ("alphabet: a / dfa: 3 0 0,2 / 1 / 2 / 1", "a"),
        ("alphabet: ab / dfa: 2 0 0 / 1 1 / 0 0", "ab"),
        ("alphabet: ab / dfa: 4 0 2 / 1 0 / 1 2 / 1 0 / 3 3", "ab"),  # state 3 unreachable
    ]
)
FINALS = ["-", "0", "1", "0,1", "5", "-1", "0,,1"]
CAP = "200"  # NERODE_MONOID_CAP


def _values(flag, spec, symbols):
    if flag == "--spec":
        return st.just(spec)
    if flag in ("--dfa", "--monoid"):
        return st.one_of(st.just(spec), st.sampled_from([s for s, _ in SPECS]))
    if flag == "--word":
        return st.one_of(st.text(st.sampled_from(symbols), max_size=4), st.just(symbols + "x"))
    if flag == "--finals":
        return st.sampled_from(FINALS)
    if flag == "--format":
        return st.sampled_from(["json", "dot"])
    top = 60 if flag == "--prefix" else 6
    return st.integers(-1, top).map(str)


@st.composite
def argvs(draw):
    name, _, flags, _ = draw(st.sampled_from(cli.COMMANDS))
    spec, symbols = draw(st.sampled_from(SPECS))
    argv = [name]
    for flag, options in flags:
        if options.get("required") or flag == "--bound" or draw(st.booleans()):
            argv += [flag, draw(_values(flag, spec, symbols))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    dot = argv[-2:] == ["--format", "dot"]  # --format is always a subcommand's last flag
    if code == 2:
        lines = err.splitlines()
        one_line = len(lines) == 1 and lines[0].startswith("error: ")
        usage = err.startswith("usage: nerode") and ": error: " in lines[-1]
        assert out == "" and (one_line or usage), (argv, out, err)
    elif dot:
        assert code == 0 and out.startswith("digraph automaton {"), (argv, code, out)
    elif argv[0] != "champernowne":
        json.loads(out)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_argv_keeps_the_exit_code_contract(argv, monkeypatch):
    monkeypatch.setenv("NERODE_MONOID_CAP", CAP)
    check_contract(argv, *run(argv))


def test_a_fixed_sample_mostly_reaches_library_code(monkeypatch):
    monkeypatch.setenv("NERODE_MONOID_CAP", CAP)
    codes = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argv=argvs())
    def sample(argv):
        code, out, err = run(argv)
        check_contract(argv, code, out, err)
        codes.append(code)

    sample()
    assert len(codes) >= 150
    assert codes.count(0) >= len(codes) / 4, {c: codes.count(c) for c in set(codes)}
