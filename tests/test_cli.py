import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nerode
from nerode.cli import main
from tests.corpus import REGEX_CORPUS

AA = "alphabet: a / regex: (aa)*"
CHAIN = "alphabet: a / dfa: 3 0 0,2 / 1 / 2 / 1"
Z3 = "alphabet: a / dfa: 3 0 0 / 1 / 2 / 0"
Z4 = "alphabet: a / dfa: 4 0 0,2 / 1 / 2 / 3 / 0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_membership_member(capsys):
    code, payload, _ = run_json(capsys, "membership", "--spec", AA, "--word", "aa")
    assert code == 0
    assert payload == {"schema": "nerode/membership/1", "word": "aa", "member": 1}


def test_membership_empty_word(capsys):
    code, payload, _ = run_json(capsys, "membership", "--spec", AA, "--word", "")
    assert code == 0 and payload["member"] == 1


def test_membership_foreign_symbol_exits_2(capsys):
    code, out, err = run(capsys, "membership", "--spec", AA, "--word", "ax")
    assert code == 2
    assert "error:" in err


def test_minimize_json(capsys):
    code, payload, _ = run_json(capsys, "minimize", "--spec", AA)
    assert code == 0
    assert payload["states"] == 2
    assert payload["finals"] == [0]
    assert payload["schema"] == "nerode/dfa/1"


def test_minimize_spec_file_path(tmp_path, capsys):
    path = tmp_path / "lang.spec"
    path.write_text("alphabet: a\nregex: (aa)*\n", encoding="utf-8")
    code, payload, _ = run_json(capsys, "minimize", "--spec", str(path))
    assert code == 0 and payload["states"] == 2


def test_undecodable_spec_file_exits_2(tmp_path, capsys):
    path = tmp_path / "lang.spec"
    path.write_bytes(b"alphabet: a\nregex: (aa)*\xff\n")
    code, out, err = run(capsys, "minimize", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == "error: spec file is not UTF-8: byte 0xff (line 2)\n"


def test_minimize_dot(capsys):
    code, out, _ = run(capsys, "minimize", "--spec", AA, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out


def test_minimize_oracle_spec_exits_2(capsys):
    code, _, err = run(capsys, "minimize", "--spec", "alphabet: ab / builtin: anbn")
    assert code == 2


def test_unknown_builtin_exits_2(capsys):
    code, _, err = run(capsys, "monoid", "--spec", "alphabet: ab / builtin: nosuch")
    assert code == 2
    assert "nosuch" in err


def test_builtin_parameters_exit_2(capsys):
    code, out, err = run(capsys, "monoid", "--spec", "alphabet: ab / builtin: anbn 3")
    assert code == 2 and out == ""
    assert err == "error: builtin 'anbn' takes 0 parameters\n"


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert run(capsys, "minimize", "--spec", AA, "--bogus", "1")[0] == 2


def test_residual(capsys):
    code, payload, _ = run_json(capsys, "residual", "--spec", AA, "--word", "a", "--depth", "1")
    assert code == 0
    assert payload["bits"] == "01"
    assert payload["depth"] == 1


def test_nerode_json(capsys):
    code, payload, _ = run_json(
        capsys, "nerode", "--spec", "alphabet: ab / builtin: anbn", "--depth", "1", "--horizon", "4"
    )
    assert code == 0
    assert len(payload["classes"]) == 3
    assert payload["classes"][0]["witness"] == ""


def test_nerode_dot_marks_unverified_dashed(capsys):
    code, out, _ = run(
        capsys,
        "nerode", "--spec", "alphabet: ab / builtin: anbn",
        "--depth", "1", "--horizon", "4", "--format", "dot",
    )
    assert code == 0
    assert "style=dashed" in out


def test_stabilize(capsys):
    code, payload, _ = run_json(capsys, "stabilize", "--spec", AA, "--depth", "1", "--horizon", "6")
    assert code == 0
    assert payload["stabilized"] is True
    assert payload["size"] == 2
    assert payload["proposed"]["states"] == 2


def test_stabilize_growing(capsys):
    code, payload, _ = run_json(
        capsys, "stabilize", "--spec", "alphabet: ab / builtin: anbn", "--depth", "3", "--horizon", "8"
    )
    assert code == 0
    assert payload["stabilized"] is False
    assert payload["counts"] == [7, 9]


def test_closure(capsys):
    code, payload, _ = run_json(capsys, "closure", "--spec", AA, "--depth", "2", "--horizon", "10")
    assert code == 0
    assert len(payload["patterns"]) == 2
    assert all(p["recurrent"] for p in payload["patterns"])


def test_monoid_uses_presented_dfa_unminimized(capsys):
    code, payload, _ = run_json(capsys, "monoid", "--spec", CHAIN)
    assert code == 0
    assert payload["order"] == 3


def test_syntactic(capsys):
    code, payload, _ = run_json(capsys, "syntactic", "--spec", "alphabet: ab / regex: (a|b)*ab")
    assert code == 0
    assert payload["order"] == 5
    assert len(payload["final_elements"]) == 1


def test_idempotents(capsys):
    code, payload, _ = run_json(capsys, "idempotents", "--spec", CHAIN)
    assert code == 0
    items = {item["element"]: item for item in payload["items"]}
    assert items[0]["idempotent"] == 0
    assert items[1]["idempotent"] == 2 and items[1]["exponent"] == 2


def test_contexts(capsys):
    code, payload, _ = run_json(
        capsys,
        "contexts", "--spec", "alphabet: ab / builtin: anbn",
        "--left", "1", "--right", "1", "--bound", "3",
    )
    assert code == 0
    assert [c["representative"] for c in payload["classes"]] == ["", "a", "b", "aa"]


def test_growth(capsys):
    code, payload, _ = run_json(
        capsys, "growth", "--spec", "alphabet: ab / builtin: anbn", "--k", "3", "--bound", "8"
    )
    assert code == 0
    assert payload["counts"] == [4, 7, 11]
    assert payload["verdict"] == "growing"


def test_morphism(capsys):
    code, payload, _ = run_json(capsys, "morphism", "--spec", AA, "--dfa", CHAIN)
    assert code == 0
    assert payload["map"] == [0, 1, 0]
    assert payload["report"]["passed"] is True


def test_morphism_non_trim_exits_2(capsys):
    bad = "alphabet: a / dfa: 3 0 0 / 0 / 2 / 1"
    code, _, err = run(capsys, "morphism", "--spec", "alphabet: a / regex: a*", "--dfa", bad)
    assert code == 2
    assert "unreachable" in err


def test_morphism_language_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "morphism", "--spec", "alphabet: a / regex: a*", "--dfa", CHAIN)
    assert code == 2
    assert "witness" in err


def test_induced_hom(capsys):
    code, payload, _ = run_json(capsys, "induced-hom", "--spec", AA, "--dfa", CHAIN)
    assert code == 0
    assert payload["map"] == [0, 1, 0]
    assert payload["source_order"] == 3 and payload["target_order"] == 2


def test_recognize_pass(capsys):
    code, payload, _ = run_json(
        capsys,
        "recognize", "--spec", AA, "--monoid", "alphabet: a / dfa: 2 0 0 / 1 / 0",
        "--finals", "0", "--bound", "10",
    )
    assert code == 0
    assert payload["passed"] is True


def test_recognize_failure_exits_1_with_witness(capsys):
    code, payload, _ = run_json(
        capsys, "recognize", "--spec", AA, "--monoid", Z3, "--finals", "0", "--bound", "10"
    )
    assert code == 1
    assert payload["violations"][0]["witness"] == "aa"


def test_min_hom(capsys):
    code, payload, _ = run_json(
        capsys, "min-hom", "--spec", AA, "--monoid", Z4, "--finals", "0,2", "--bound", "10"
    )
    assert code == 0
    assert payload["map"] == [0, 1, 0, 1]


def test_min_hom_recognition_failure_exits_2(capsys):
    code, _, err = run(capsys, "min-hom", "--spec", AA, "--monoid", Z3, "--finals", "0")
    assert code == 2
    assert "aa" in err


def test_champernowne_plain_text(capsys):
    code, out, _ = run(capsys, "champernowne", "--prefix", "10")
    assert code == 0
    assert out == "0100011011\n"


def test_density_pass(capsys):
    code, payload, _ = run_json(capsys, "density", "--k", "2", "--prefix", "10")
    assert code == 0
    assert payload["passed"] is True


def test_density_fail_exits_1(capsys):
    code, payload, _ = run_json(capsys, "density", "--k", "3", "--prefix", "3")
    assert code == 1
    assert len(payload["missing"]) == 7


def test_density_custom_unary_spec(capsys):
    code, payload, _ = run_json(
        capsys, "density", "--spec", "alphabet: a / regex: a*", "--k", "1", "--prefix", "10"
    )
    assert code == 1
    assert payload["missing"] == ["0"]


def test_connected(capsys):
    code, payload, _ = run_json(capsys, "connected", "--spec", "alphabet: ab / regex: (a|b)*ab")
    assert code == 0
    assert payload["strongly_connected"] is True


def test_connected_false(capsys):
    code, payload, _ = run_json(capsys, "connected", "--spec", "alphabet: ab / regex: a(a|b)*")
    assert code == 0
    assert payload["strongly_connected"] is False


def test_output_is_deterministic(capsys):
    first = run(capsys, "syntactic", "--spec", "alphabet: ab / regex: (a|b)*ab")
    second = run(capsys, "syntactic", "--spec", "alphabet: ab / regex: (a|b)*ab")
    assert first == second
    dot1 = run(capsys, "nerode", "--spec", AA, "--depth", "2", "--horizon", "6", "--format", "dot")
    dot2 = run(capsys, "nerode", "--spec", AA, "--depth", "2", "--horizon", "6", "--format", "dot")
    assert dot1 == dot2


# corpus regexes with a union under a star: their compiled states are sets of positions
STARRED_UNIONS = [(p, symbols) for p, symbols, _ in REGEX_CORPUS if "|" in p and ")*" in p]


def _cli_stdout(hash_seed, argv):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(Path(nerode.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nerode.cli", *argv], env=env, capture_output=True, check=True)
    return done.stdout


@pytest.mark.parametrize("command", [["minimize"], ["syntactic"], ["nerode", "--format", "dot"]])
def test_output_is_independent_of_the_hash_seed(command):
    for pattern, symbols in STARRED_UNIONS:
        argv = [*command, "--spec", f"alphabet: {symbols} / regex: {pattern}"]
        assert _cli_stdout(0, argv) == _cli_stdout(1, argv), argv


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("bad_flag_cmd", [
    ["stabilize", "--spec", AA, "--depth", "3", "--horizon", "3"],
    ["residual", "--spec", AA, "--word", "a", "--depth", "-1"],
    # a rational spec never reads the bound, which is still checked
    ["morphism", "--spec", AA, "--dfa", CHAIN, "--bound", "-1"],
    ["induced-hom", "--spec", AA, "--dfa", CHAIN, "--bound", "-1"],
])
def test_precondition_errors_exit_2(capsys, bad_flag_cmd):
    assert run(capsys, *bad_flag_cmd)[0] == 2


def _one_error_line(code, out, err):
    return code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


def test_inline_spec_too_long_for_a_path_exits_2(capsys):
    spec = "alphabet: ab / regex: " + "(a|b)" * 1000 + "c"  # 5 000 characters and more
    result = run(capsys, "minimize", "--spec", spec)
    assert _one_error_line(*result)
    assert "Traceback" not in result[2]


def test_regex_nested_1200_deep_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.spec"
    path.write_text("alphabet: ab\nregex: " + "(" * 1200 + "a" + ")" * 1200 + "\n", encoding="utf-8")
    result = run(capsys, "minimize", "--spec", str(path))
    assert _one_error_line(*result)
    assert "nested deeper" in result[2]


def test_finals_with_empty_field_exits_2(capsys):
    result = run(capsys, "recognize", "--spec", AA, "--monoid", Z3, "--finals", "0,,")
    assert _one_error_line(*result)
    assert "'0,,'" in result[2]


def test_negative_monoid_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("NERODE_MONOID_CAP", "-5")
    result = run(capsys, "monoid", "--spec", AA)
    assert _one_error_line(*result)
    assert "NERODE_MONOID_CAP must be at least 1" in result[2]


def test_closed_stdout_exits_2_without_traceback():
    # a 7-state DFA whose monoid table prints about 2 MB, far more than a pipe holds
    spec = "alphabet: ab / dfa: 7 0 0,3 / 5 3 / 0 0 / 6 6 / 6 1 / 6 0 / 0 1 / 1 4"
    env = dict(os.environ, PYTHONPATH=str(Path(nerode.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "nerode.cli", "monoid", "--spec", spec],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == b""


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def boom(d):
        raise RuntimeError("boom")

    monkeypatch.setattr(nerode.cli, "is_strongly_connected", boom)
    code, out, err = run(capsys, "connected", "--spec", AA)
    assert code == 3 and out == ""
    assert err.startswith("error: internal: RuntimeError('boom') at test_cli.py:")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# --- one parser per process ------------------------------------------------


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    nerode.cli.build_parser()
    assert len(built) == 1 + len(nerode.cli.COMMANDS)  # the counter sees every parser
    built.clear()
    for argv in (["membership", "--spec", AA, "--word", "aa"], ["minimize", "--spec", AA],
                 ["frobnicate"], ["champernowne", "--prefix", "5"]):
        main(argv)
    capsys.readouterr()
    assert built == []


def test_a_flag_does_not_outlive_its_call(capsys):
    deep = run(capsys, "residual", "--spec", AA, "--word", "a", "--depth", "5")
    default = run(capsys, "residual", "--spec", AA, "--word", "a")
    assert deep != default
    assert default == run(capsys, "residual", "--spec", AA, "--word", "a", "--depth", "3")


def test_a_usage_error_leaves_the_next_call_alone(capsys):
    valid = run(capsys, "nerode", "--spec", AA, "--depth", "2", "--horizon", "5")
    code, out, err = run(capsys, "nerode", "--spec", AA, "--depth", "x")
    assert code == 2 and out == "" and "usage:" in err
    assert run(capsys, "nerode", "--spec", AA, "--depth", "2", "--horizon", "5") == valid


def test_help_lists_every_subcommand_and_leaves_the_next_call_alone(capsys):
    valid = run(capsys, "minimize", "--spec", AA)
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    for name, *_ in nerode.cli.COMMANDS:
        assert name in out
    assert len(nerode.cli.COMMANDS) == 18
    assert run(capsys, "minimize", "--spec", AA) == valid


def test_a_fixed_argv_sequence_repeats_exactly(capsys):
    argvs = [
        ["stabilize", "--spec", AA, "--depth", "1", "--horizon", "5"],
        ["recognize", "--spec", AA, "--monoid", Z4, "--finals", "0,2", "--bound", "6"],
        ["minimize", "--spec", AA, "--bogus", "1"],
        ["density", "--k", "2", "--prefix", "30"],
        ["residual", "--spec", AA, "--word", "", "--depth", "-1"],
    ]
    first = [run(capsys, *argv) for argv in argvs]
    assert [run(capsys, *argv) for argv in argvs] == first
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 2]
