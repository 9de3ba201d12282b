"""End-to-end command line tests: golden outputs, exit codes, formats.

Every test drives ``main`` in process so exit codes and streams are pinned
without spawning an interpreter, except the closed-pipe tests, which need a
real pipe.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, THEOREMS

from commuter import exchange
from commuter.cli import EXIT_BUDGET, EXIT_FAILED, EXIT_OK, EXIT_USAGE, Output, main

THEOREM1 = str(THEOREMS / "theorem1.cmt")
MONOID = str(FIXTURES / "monoid.cmt")
EIGHT_ENDOS = str(FIXTURES / "eight_endos.cmt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- proof drivers


def test_theorem1_golden(capsys):
    code, out, err = run(capsys, "theorem1")
    assert code == EXIT_OK
    assert err == ""
    assert out == (
        "alpha after gamma = id A X: 2 steps\n"
        "  1. eta_square backward @ slices[0..3] whisker 1\n"
        "  2. triangle_A forward @ slices[0..2] whisker 0\n"
        "gamma after alpha = id X A: 2 steps\n"
        "  1. eps_square forward @ slices[1..4] whisker 0\n"
        "  2. triangle_A forward @ slices[0..2] whisker 1\n"
    )


def test_theorem3_golden(capsys):
    code, out, err = run(capsys, "theorem3")
    assert code == EXIT_OK
    assert err == ""
    assert out == (
        "unit-counit composite = a: 3 steps\n"
        "  1. eta_cosquare backward @ slices[0..1] whisker 1\n"
        "  2. b_inv_left forward @ slices[2..4] whisker 1\n"
        "  3. triangle_A forward @ slices[0..2] whisker 0\n"
        "b after delta = id X B: 2 steps\n"
        "  1. eta_cosquare forward @ slices[0..3] whisker 0\n"
        "  2. triangle_B forward @ slices[0..2] whisker 1\n"
        "delta after b = id B X: 2 steps\n"
        "  1. eps_cosquare backward @ slices[1..4] whisker 1\n"
        "  2. triangle_B forward @ slices[0..2] whisker 0\n"
    )


def test_prove_golden(capsys):
    code, out, err = run(
        capsys, "prove", "--file", MONOID, "--lhs", "padded", "--rhs", "id U"
    )
    assert code == EXIT_OK
    assert out == (
        "padded = id U: 2 steps\n"
        "  1. unit_right forward @ slices[2..4] whisker 0\n"
        "  2. unit_left forward @ slices[0..2] whisker 0\n"
    )


def test_prove_reproduces_theorem1_goal(capsys):
    _, theorem_out, _ = run(capsys, "theorem1")
    code, out, err = run(
        capsys, "prove", "--file", THEOREM1, "--lhs", "alpha_after_gamma", "--rhs", "id A X"
    )
    assert code == EXIT_OK
    assert out.splitlines()[1:] == theorem_out.splitlines()[1:3]  # the first goal's two steps


def test_prove_budget_exhaustion(capsys):
    code, out, err = run(
        capsys,
        "prove", "--file", MONOID, "--lhs", "mm_left", "--rhs", "mm_right",
        "--max-depth", "2", "--max-nodes", "200",
    )
    assert code == EXIT_BUDGET
    assert out == "budget exhausted: proof search budget exhausted (this is not a disproof)\n"


def test_prove_boundary_mismatch(capsys):
    code, out, err = run(
        capsys, "prove", "--file", MONOID, "--lhs", "mm_left", "--rhs", "id U U"
    )
    assert code == EXIT_FAILED
    assert out == "not equal: boundaries differ\n"


# ------------------------------------------------------------------- check


def test_check_golden(capsys):
    code, out, err = run(capsys, "check", "--file", THEOREM1)
    assert code == EXIT_OK
    assert out == (
        "objects: 3 (X A B)\n"
        "generators: 4\n"
        "  alpha : X A -> A X\n"
        "  beta : X B -> B X\n"
        "  eta : 1 -> B A\n"
        "  eps : A B -> 1\n"
        "diagrams: 3\n"
        "  gamma : A X -> X A (3 slices)\n"
        "  alpha_after_gamma : A X -> A X (4 slices)\n"
        "  gamma_after_alpha : X A -> X A (4 slices)\n"
        "rules: 4\n"
        "  triangle_A : A -> A\n"
        "  triangle_B : B -> B\n"
        "  eta_square : X -> B A X\n"
        "  eps_square : X A B -> X\n"
    )


def test_check_bad_syntax_exits_3(capsys):
    code, out, err = run(capsys, "check", "--file", str(FIXTURES / "bad_syntax.cmt"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "commuter: ParseError: 5:1: expected ')' (expected ')')\n"


def test_truncated_term_error_points_past_its_end(capsys):
    # a term has no trailing newline: the end of input sits after its last character
    code, out, err = run(capsys, "normalize", "--file", MONOID, "--lhs", "(u ; u")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "commuter: ParseError: 1:7: expected ')' (expected ')')\n"


def test_check_bad_typing_exits_3(capsys):
    code, out, err = run(capsys, "check", "--file", str(FIXTURES / "bad_typing.cmt"))
    assert code == EXIT_USAGE
    assert err == (
        "commuter: TypingError: line 5, col 9: cannot compose: "
        "first diagram ends at Y, second starts at X\n"
    )


# ---------------------------------------------------------------- normalize


def test_normalize_single_term(capsys):
    code, out, err = run(capsys, "normalize", "--file", THEOREM1, "--lhs", "gamma")
    assert code == EXIT_OK
    assert out == (
        "input:     ((id A X * eta) ; ((id A * (beta * id A)) ; (eps * id X A)))\n"
        "canonical: ((id A X * eta) ; ((id A * (beta * id A)) ; (eps * id X A)))\n"
        "slices:    [A X | eta@2 ; beta@1 ; eps@0]\n"
    )


def test_normalize_comparison_equal(capsys):
    code, out, err = run(
        capsys,
        "normalize", "--file", THEOREM1,
        "--lhs", "(alpha ; gamma)", "--rhs", "(alpha ; gamma)",
    )
    assert code == EXIT_OK
    assert out.endswith("comparison: equal (up to slice interchange)\n")
    assert "slices:    [X A | alpha@0 ; eta@2 ; beta@1 ; eps@0]\n" in out


def test_normalize_comparison_not_equal(capsys):
    code, out, err = run(
        capsys, "normalize", "--file", THEOREM1, "--lhs", "gamma", "--rhs", "id A X"
    )
    assert code == EXIT_FAILED
    assert out.endswith("comparison: not equal (up to slice interchange)\n")


def test_normalize_comparison_walks_each_class_once(capsys, monkeypatch):
    walks = []
    walk = exchange._walk

    def counted(start, dom, cod):
        walks.append(start)
        return walk(start, dom, cod)

    monkeypatch.setattr(exchange, "_walk", counted)
    code, out, err = run(
        capsys, "normalize", "--file", MONOID,
        "--lhs", "((u * u) * (u * u))", "--rhs", "(u * (u * (u * u)))",
    )
    assert code == EXIT_OK
    assert out.endswith("comparison: equal (up to slice interchange)\n")
    assert len(walks) == 1  # the lhs class gives the canonical form and the comparison


@pytest.mark.parametrize(
    "lhs, rhs, want_code, want_tail",
    [
        ("chain", "spread", EXIT_FAILED, "comparison: not equal (up to slice interchange)\n"),
        ("spread", "chain", EXIT_BUDGET, ""),
    ],
)
def test_normalize_refuses_only_an_lhs_class_past_the_cap(capsys, lhs, rhs, want_code, want_tail):
    # chain's class has one member and spread's 8!, so spread is simply not a
    # member of chain's class; the reverse needs spread's class walked
    code, out, err = run(capsys, "normalize", "--file", EIGHT_ENDOS, "--lhs", lhs, "--rhs", rhs)
    assert code == want_code
    assert out.endswith(want_tail)
    assert ("more than 10000 linearizations" in err) == (want_code == EXIT_BUDGET)


# ------------------------------------------------------------------- finset


def test_finset_atom_singleton_passes(capsys):
    code, out, err = run(capsys, "finset", "atom", "--d", "1")
    assert code == EXIT_OK
    assert out == (
        "atom check for |D| = 1, scanning |J| = 0..4\n"
        "  |J| = 0: 0 -> 0  bijection: yes\n"
        "  |J| = 1: 1 -> 1  bijection: yes\n"
        "  |J| = 2: 2 -> 2  bijection: yes\n"
        "  |J| = 3: 3 -> 3  bijection: yes\n"
        "  |J| = 4: 4 -> 4  bijection: yes\n"
        "  retract of 1: yes\n"
        "  verdict: ok\n"
    )


def test_finset_atom_two_points_fails(capsys):
    code, out, err = run(capsys, "finset", "atom", "--d", "2")
    assert code == EXIT_FAILED
    assert out == (
        "atom check for |D| = 2, scanning |J| = 0..4\n"
        "  |J| = 0: 0 -> 0  bijection: yes\n"
        "  |J| = 1: 1 -> 1  bijection: yes\n"
        "  |J| = 2: 2 -> 4  bijection: no\n"
        "  |J| = 3: 3 -> 9  bijection: no\n"
        "  |J| = 4: 4 -> 16  bijection: no\n"
        "  retract of 1: no\n"
        "  verdict: FAILED (first failure at |J| = 2)\n"
    )


def test_finset_copower_times_bijective(capsys):
    code, out, err = run(capsys, "finset", "copower", "--s", "3", "--j", "2", "--c", "4")
    assert code == EXIT_OK
    assert out == (
        "copower comparison for times 3, j = 2, |C| = 4\n"
        "  24 -> 24\n"
        "  injective: yes\n"
        "  surjective: yes\n"
        "  bijection: yes\n"
    )


def test_finset_copower_power_not_bijective(capsys):
    code, out, err = run(capsys, "finset", "copower", "--power", "2", "--j", "2", "--c", "1")
    assert code == EXIT_FAILED
    assert out == (
        "copower comparison for power 2, j = 2, |C| = 1\n"
        "  2 -> 4\n"
        "  injective: yes\n"
        "  surjective: no\n"
        "  bijection: no\n"
    )


# ------------------------------------------------------------------- matrix


def test_matrix_theorem1_random_dims(capsys):
    code, out, err = run(capsys, "matrix", "theorem1", "--dims", "2,3", "--seed", "42")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "matrix-theorem1 dims A=2 X=3 seed=42 tolerance 1e-09"
    labels = [ln.rsplit(maxsplit=1)[0].strip() for ln in lines[1:7]]
    assert labels == [
        "triangle_A", "triangle_B", "eta_square", "eps_square",
        "alpha after gamma = id A X", "gamma after alpha = id X A",
    ]
    assert lines[7] == "  ok"


def test_matrix_theorem3_exact_zeros(capsys):
    code, out, err = run(capsys, "matrix", "theorem3", "--dims", "3,3")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "matrix-theorem3 dims A=3 B=3 X=3 tolerance 1e-12"
    for ln in lines[1:8]:
        assert ln.endswith("0.000e+00")
    assert lines[8] == "  ok"


@pytest.mark.parametrize("dims", ["1,1000", "10,1"])
def test_matrix_checks_hold_at_the_largest_accepted_dims(capsys, dims):
    # n^3 * x = 1000: each side of the widest word at the size bound
    for check in ("theorem1", "theorem3"):
        code, out, err = run(capsys, "matrix", check, "--dims", dims)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == "  ok"


# ------------------------------------------------------------ structured IO


def parse_records(out: str) -> list[dict]:
    records = []
    for line in out.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)
        records.append(json.loads(line))
    return records


def test_structured_theorem3(capsys):
    code, out, err = run(capsys, "--format", "structured", "theorem3")
    assert code == EXIT_OK
    records = parse_records(out)
    assert records[0] == {"record": "header", "version": 1, "command": "theorem3"}
    assert records[-1] == {"record": "status", "status": "ok", "exit": 0}
    traces = [r for r in records if r["record"] == "trace"]
    assert [t["length"] for t in traces] == [3, 2, 2]
    assert traces[0]["input"] == "A X"
    assert traces[0]["steps"][0] == {
        "rule": "eta_cosquare",
        "direction": "backward",
        "start": 0,
        "end": 1,
        "whisker": 1,
    }


def test_structured_normalize_failure(capsys):
    code, out, err = run(
        capsys,
        "--format", "structured",
        "normalize", "--file", THEOREM1, "--lhs", "gamma", "--rhs", "id A X",
    )
    assert code == EXIT_FAILED
    records = parse_records(out)
    kinds = [r["record"] for r in records]
    assert kinds == ["header", "normal_form", "comparison", "status"]
    assert records[1]["certificate"] == [0, 1, 2]
    assert records[2] == {"record": "comparison", "equal": False}
    assert records[3] == {"record": "status", "status": "failed", "exit": 1}


def test_structured_finset_atom_empty(capsys):
    code, out, err = run(capsys, "--format", "structured", "finset", "atom", "--d", "0")
    assert code == EXIT_FAILED
    records = parse_records(out)
    report = records[1]
    assert report["record"] == "report"
    assert report["bijective"] == [False, True, False, False, False]
    assert report["sizes"][0] == [0, 1]
    assert report["retract"] is False
    assert report["consistent"] is False


def test_structured_budget_status(capsys):
    code, out, err = run(
        capsys,
        "--format", "structured",
        "prove", "--file", MONOID, "--lhs", "mm_left", "--rhs", "mm_right",
        "--max-depth", "2", "--max-nodes", "200",
    )
    assert code == EXIT_BUDGET
    records = parse_records(out)
    budget = [r for r in records if r["record"] == "budget"]
    assert len(budget) == 1
    assert set(budget[0]["stats"]) == {
        "nodes", "depth_left", "depth_right", "frontier_left", "frontier_right"
    }
    assert records[-1] == {"record": "status", "status": "budget", "exit": 2}


# ----------------------------------------------------------- usage and color


EIGHT_UNITS = "(u * (u * (u * (u * (u * (u * (u * u)))))))"  # a class of 8! members


@pytest.mark.parametrize(
    "argv, want_code, want_err",
    [
        (("normalize", "--file", MONOID, "--lhs", EIGHT_UNITS), EXIT_BUDGET, "more than 10000 linearizations"),
        (("finset", "copower", "--power", "5000", "--j", "2", "--c", "10"), EXIT_USAGE, "exceeds limit"),
        (("finset", "copower", "--power", "10000000", "--j", "2", "--c", "10"), EXIT_USAGE, "exceeds limit"),
        (("finset", "atom", "--d", "1", "--max-j", "20000"), EXIT_USAGE, "exceeds limit"),
        (("finset", "atom", "--d", "0", "--max-j", "1000000000"), EXIT_USAGE, "exceeds limit"),
        (("matrix", "theorem1", "--dims", "200,200"), EXIT_USAGE, "exceeds limit"),
        (("matrix", "theorem1", "--dims", "100,100"), EXIT_USAGE, "exceeds limit"),
        (("matrix", "theorem3", "--dims", "100,100"), EXIT_USAGE, "exceeds limit"),
        (("matrix", "theorem1", "--dims", "1,10000"), EXIT_USAGE, "exceeds limit"),
        (("matrix", "theorem3", "--dims", "1,10000"), EXIT_USAGE, "exceeds limit"),
    ],
    ids=[
        "normalize-8-units", "power-5000", "power-10000000", "atom-max-j-20000", "atom-max-j-10^9",
        "theorem1-200", "theorem1-100", "theorem3-100", "theorem1-1-10000", "theorem3-1-10000",
    ],
)
def test_oversize_request_refused_quickly(capsys, argv, want_code, want_err):
    began = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - began < 1.0
    assert code == want_code
    assert want_err in err


def test_unknown_subcommand_exits_3(capsys):
    code, out, err = run(capsys, "nope")
    assert code == EXIT_USAGE
    assert "invalid choice: 'nope'" in err


def test_bad_dims_value_exits_3(capsys):
    code, out, err = run(capsys, "matrix", "theorem1", "--dims", "7")
    assert code == EXIT_USAGE
    assert "invalid dims value: '7'" in err


def test_missing_required_flag_exits_3(capsys):
    code, out, err = run(capsys, "check")
    assert code == EXIT_USAGE
    assert "--file" in err


def test_no_ansi_when_not_a_tty(capsys):
    code, out, err = run(
        capsys, "normalize", "--file", THEOREM1, "--lhs", "gamma", "--rhs", "id A X"
    )
    assert "\x1b[" not in out


def test_output_mark_colors_only_when_enabled():
    plain = Output(color=False)
    assert plain.mark("ok", True) == "ok"
    colored = Output(color=True)
    assert colored.mark("ok", True) == "\x1b[32mok\x1b[0m"
    assert colored.mark("FAILED", False) == "\x1b[31mFAILED\x1b[0m"


def test_no_color_env_disables_color(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    code, out, err = run(capsys, "finset", "atom", "--d", "2")
    assert code == EXIT_FAILED
    assert "\x1b[" not in out


def test_tty_without_no_color_marks_verdict(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    code, out, err = run(capsys, "finset", "atom", "--d", "2")
    assert code == EXIT_FAILED
    assert "\x1b[31mFAILED\x1b[0m" in out


def test_structured_mode_suppresses_text(capsys):
    code, out, err = run(capsys, "--format", "structured", "finset", "atom", "--d", "1")
    assert code == EXIT_OK
    for line in out.splitlines():
        json.loads(line)


@pytest.mark.parametrize(
    "argv, want",
    [
        (("theorem1",), None),
        (("theorem3",), None),
        (("check", "--file", THEOREM1), None),
        (("finset", "atom", "--d", "1"), None),
        (("finset", "copower", "--s", "2", "--j", "2", "--c", "2"), None),
        (("matrix", "theorem1", "--dims", "2,2", "--seed", "43"), None),
        (
            ("matrix", "theorem3", "--dims", "2,2"),
            [
                {
                    "record": "report", "command": "matrix-theorem3",
                    "dims": {"A": 2, "B": 2, "X": 2}, "seed": None,
                    "residuals": dict.fromkeys(
                        ("triangle_A", "triangle_B", "b_inv_left", "b_inv_right",
                         "eta_cosquare", "eps_cosquare", "unit-counit composite = a"),
                        0.0,
                    ),
                    "tolerance": 1e-12, "ok": True,
                },
                {"record": "status", "status": "ok", "exit": 0},
            ],
        ),
        (
            ("check", "--file", MONOID),
            [
                {"record": "summary", "objects": ["U"], "generators": 2, "diagrams": 3, "rules": 2},
                {"record": "status", "status": "ok", "exit": 0},
            ],
        ),
        (
            ("finset", "atom", "--d", "2"),
            [
                {
                    "record": "report", "command": "finset-atom", "d": 2, "max_j": 4,
                    "bijective": [True, True, False, False, False],
                    "sizes": [[0, 0], [1, 1], [2, 4], [3, 9], [4, 16]],
                    "retract": False, "consistent": False,
                },
                {"record": "status", "status": "failed", "exit": 1},
            ],
        ),
        (
            ("finset", "copower", "--power", "2", "--j", "2", "--c", "1"),
            [
                {
                    "record": "report", "command": "finset-copower", "functor": "power 2",
                    "j": 2, "c": 1, "dom": 2, "cod": 4, "bijective": False,
                },
                {"record": "status", "status": "failed", "exit": 1},
            ],
        ),
        (
            ("prove", "--file", MONOID, "--lhs", "mm_left", "--rhs", "mm_right",
             "--max-depth", "2", "--max-nodes", "200"),
            [
                {
                    "record": "budget",
                    "stats": {
                        "nodes": 162, "depth_left": 2, "depth_right": 2,
                        "frontier_left": 70, "frontier_right": 70,
                    },
                },
                {"record": "status", "status": "budget", "exit": 2},
            ],
        ),
    ],
    ids=[f"argv{i}" for i in range(11)],  # independent of ``want``, so pinning a record renames no case
)
def test_structured_status_matches_exit(capsys, argv, want):
    code, out, err = run(capsys, "--format", "structured", *argv)
    records = parse_records(out)
    assert records[0]["record"] == "header"
    assert records[-1]["record"] == "status"
    assert records[-1]["exit"] == code
    if want is not None:
        assert records[1:] == want


# ------------------------------------------------------------- closed stdout


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, want_code",
    [
        (("theorem3",), EXIT_OK),
        (("--format", "structured", "theorem3"), EXIT_OK),
        (("normalize", "--file", MONOID, "--lhs", "mm_left", "--rhs", "mm_right"), EXIT_FAILED),
        (("--help",), EXIT_OK),
    ],
    ids=["theorem3", "structured", "normalize-unequal", "help"],
)
def test_closed_stdout_ends_output_without_traceback(argv, want_code, unbuffered):
    # the reader is gone before the first write: unbuffered, the first line
    # fails; buffered, the final flush does
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "commuter", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == want_code
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
