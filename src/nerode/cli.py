"""Command-line surface: one subcommand per workbench operation.

Exit codes: 0 success (or a passing verification), 1 verification
violations found, 2 input/precondition/usage errors or a stdout closed by
its reader, 3 an internal error (a bug; one `error: internal:` line on
stderr).  Output is canonical JSON; `champernowne` emits a plain bit
string.  Only `minimize` and `nerode`, whose results are automata, take
--format dot; every other subcommand rejects --format as a usage error.

The --spec value is a path if one exists, otherwise an inline spec with
" / " standing for line breaks, e.g. "alphabet: a / regex: (aa)*".

From Python, `main(argv) -> int` may be called any number of times in one
process; the argument parser is built once, when this module is imported.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .dfa import is_strongly_connected
from .errors import InputError, NerodeError, SpecFileError
from .language import LanguageSpec, membership, minimal_dfa, parse_finals, parse_spec_file, presented_dfa
from .monoid import (
    FiniteMonoid,
    context_classes,
    growth_profile,
    idempotent_power,
    syntactic_monoid,
    transition_monoid,
)
from .recognition import (
    DEFAULT_WORD_BOUND,
    check_morphism,
    induced_hom,
    minimal_monoid_hom,
    minimization_morphism,
    verify_recognition,
)
from .serialize import export_dot, monoid_dict, morphism_dict, report_dict, write_json
from .shift import BitStream, champernowne_prefix, champernowne_stream, density_check
from .topology import (
    nerode_classes,
    orbit_closure_report,
    residual_truncation,
    stabilization_check,
)

DEFAULT_DEPTH = 3
DEFAULT_HORIZON = 8


def load_spec(value: str) -> LanguageSpec:
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. ENAMETOOLONG: the value cannot name a file, so it is inline
        is_file = False
    if is_file:
        try:
            raw = path.read_bytes()
        except OSError as e:  # e.g. no read permission, or removed since is_file()
            raise InputError(f"cannot read spec file {value}: {e.strerror}") from None
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            line = raw.count(b"\n", 0, e.start) + 1
            raise SpecFileError(f"spec file is not UTF-8: byte 0x{raw[e.start]:02x}", line) from None
        return parse_spec_file(text)
    return parse_spec_file(value.replace(" / ", "\n"))


def _emit(payload, fmt: str = "json") -> int:
    if fmt == "dot":
        sys.stdout.write(export_dot(payload))
    else:
        write_json(payload, sys.stdout.write)
    return 0


def _emit_report(report) -> int:
    write_json(report, sys.stdout.write)
    return 0 if report.passed else 1


def _recognizer(args) -> tuple[FiniteMonoid, dict[str, int], frozenset[int]]:
    """The transition monoid of --monoid, its generators and the --finals set."""
    m = transition_monoid(presented_dfa(args.monoid))
    return m, m.generators, parse_finals(args.finals)


def cmd_idempotents(args) -> int:
    m = transition_monoid(presented_dfa(args.spec))
    items = []
    for s in range(m.order):
        e = idempotent_power(m, s)
        k, p = 1, s
        while p != e:
            p = m.table[p][s]
            k += 1
        items.append({"element": s, "witness": m.witnesses[s], "idempotent": e, "exponent": k})
    payload = {"schema": "nerode/idempotents/1", "order": m.order, "items": items}
    return _emit(payload)


def cmd_morphism(args) -> int:
    phi = minimization_morphism(presented_dfa(args.dfa), args.spec, args.bound)
    report = check_morphism(phi)
    payload = morphism_dict(phi)
    payload["report"] = report_dict(report)
    write_json(payload, sys.stdout.write)
    return 0 if report.passed else 1


def cmd_champernowne(args) -> int:
    sys.stdout.write(champernowne_prefix(args.prefix) + "\n")
    return 0


def cmd_connected(args) -> int:
    d = minimal_dfa(args.spec)
    payload = {
        "schema": "nerode/connected/1",
        "states": d.n_states,
        "strongly_connected": is_strongly_connected(d),
    }
    return _emit(payload)


# Flags as (name, add_argument keywords).  The values of SPEC_DESTS are spec
# texts; main() parses them, in that order, before a handler runs.
_SPEC_HELP = "spec file path or inline spec (' / ' = newline)"
SPEC = ("--spec", {"required": True, "help": _SPEC_HELP})
DFA = ("--dfa", {"required": True, "help": "spec for the source DFA"})
MONOID = ("--monoid", {"required": True, "help": "spec for a DFA whose transition monoid is used"})
FINALS = ("--finals", {"required": True, "help": "comma-separated element indices ('-' for none)"})
WORD = ("--word", {"required": True})
DEPTH = ("--depth", {"type": int, "default": DEFAULT_DEPTH})
HORIZON = ("--horizon", {"type": int, "default": DEFAULT_HORIZON})
BOUND = ("--bound", {"type": int, "default": DEFAULT_WORD_BOUND})
FORMAT = ("--format", {"choices": ["json", "dot"], "default": "json"})
SPEC_DESTS = ("spec", "dfa", "monoid")

# (name, help, flags, handler) for every subcommand, in --help order; a
# handler returns the exit status.  Only the automata of minimize and nerode
# have a DOT rendering, so only they take --format.
COMMANDS = (
    ("membership", "evaluate the characteristic function on one word", (SPEC, WORD),
     lambda a: _emit({"schema": "nerode/membership/1", "word": a.word,
                      "member": membership(a.spec, a.word)})),
    ("minimize", "canonical minimal DFA of a rational spec", (SPEC, FORMAT),
     lambda a: _emit(minimal_dfa(a.spec), a.format)),
    ("residual", "depth-d truncation of the residual of a word", (SPEC, WORD, DEPTH),
     lambda a: _emit(residual_truncation(a.spec, a.word, a.depth))),
    ("nerode", "depth-d quotient of the enumerated residuals", (SPEC, DEPTH, HORIZON, FORMAT),
     lambda a: _emit(nerode_classes(a.spec, a.depth, a.horizon), a.format)),
    ("stabilize", "compare depth-d and depth-(d+1) quotients", (SPEC, DEPTH, HORIZON),
     lambda a: _emit(stabilization_check(a.spec, a.depth, a.horizon))),
    ("closure", "occurrence statistics of depth-d residual patterns", (SPEC, DEPTH, HORIZON),
     lambda a: _emit(orbit_closure_report(a.spec, a.depth, a.horizon))),
    ("monoid", "transition monoid of the presented DFA", (SPEC,),
     lambda a: _emit(transition_monoid(presented_dfa(a.spec)))),
    ("syntactic", "syntactic monoid and recognizing subset", (SPEC,),
     lambda a: _emit(monoid_dict(*syntactic_monoid(a.spec)))),
    ("idempotents", "idempotent power of every transition monoid element", (SPEC,),
     cmd_idempotents),
    ("contexts", "bounded-context classes of words",
     (SPEC, ("--left", {"type": int, "default": 1}), ("--right", {"type": int, "default": 1}),
      BOUND),
     lambda a: _emit(context_classes(a.spec, a.left, a.right, a.bound))),
    ("growth", "context class counts at bounds (k,k), k=1..kmax",
     (SPEC, ("--k", {"type": int, "default": 3}), BOUND),
     lambda a: _emit(growth_profile(a.spec, a.k, a.bound))),
    ("morphism", "morphism from a trim DFA onto the minimal DFA, checked", (SPEC, DFA, BOUND),
     cmd_morphism),
    ("induced-hom", "monoid homomorphism induced by the minimization morphism",
     (SPEC, DFA, BOUND),
     lambda a: _emit(induced_hom(minimization_morphism(presented_dfa(a.dfa), a.spec, a.bound)))),
    ("recognize", "check that a monoid/final-set pair recognizes the language",
     (SPEC, MONOID, FINALS, BOUND),
     lambda a: _emit_report(verify_recognition(*_recognizer(a), a.spec, a.bound))),
    ("min-hom", "collapse a recognizing monoid onto the syntactic monoid",
     (SPEC, MONOID, FINALS, BOUND),
     lambda a: _emit(minimal_monoid_hom(*_recognizer(a), a.spec, a.bound))),
    ("champernowne", "prefix of the dense-orbit bit sequence",
     (("--prefix", {"type": int, "required": True}),), cmd_champernowne),
    ("density", "which length-k patterns occur in a stream prefix",
     (("--spec", {"help": _SPEC_HELP}), ("--k", {"type": int, "required": True}),
      ("--prefix", {"type": int, "required": True})),
     lambda a: _emit_report(
         density_check(BitStream(a.spec) if a.spec else champernowne_stream(), a.k, a.prefix))),
    ("connected", "strong connectivity of the minimal DFA", (SPEC,), cmd_connected),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nerode",
        description="Residual automata and syntactic monoid workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


# Built once per process: the parser depends only on COMMANDS and the flag
# constants, and parse_args returns a fresh Namespace on every call.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        for dest in SPEC_DESTS:
            if getattr(args, dest, None) is not None:
                setattr(args, dest, load_spec(getattr(args, dest)))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except NerodeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away; what is still buffered goes to devnull so
        # that the flush at interpreter exit stays quiet.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # an in-process stream: nothing to redirect
            return 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 2
    except Exception as e:
        where = traceback.extract_tb(e.__traceback__)[-1]
        print(f"error: internal: {e!r} at {Path(where.filename).name}:{where.lineno}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
