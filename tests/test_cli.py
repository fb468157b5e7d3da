"""CLI contract: canonical stdout, diagnostics on stderr, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from geotype import serialize
from geotype.cli import _build_parser, main

from conftest import UNUSABLE_INTEGER_FILES, make_e0
from golden_cases import CASES, GOLDEN, expected, outcome



@pytest.fixture
def e1_path() -> str:
    return str(GOLDEN / "E1.gt")


@pytest.fixture
def e2_path() -> str:
    return str(GOLDEN / "E2.gt")


@pytest.fixture
def w12_path() -> str:
    return str(GOLDEN / "W12.codes")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case[0][0]))
def test_golden_case(capsys, monkeypatch, case):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("GEOTYPE_COLOR", raising=False)
    assert outcome(case, lambda argv: run_cli(capsys, *argv)) == expected(case)


def test_every_subcommand_has_a_case():
    """Each subcommand of the parser is the first word of some golden case."""
    (sub,) = (action for action in _build_parser()._actions if action.dest == "command")
    assert sorted(set(sub.choices) - {argv[0] for runs, *_ in CASES for argv in runs}) == []


def test_every_golden_file_belongs_to_a_case():
    """Each golden file is named by a case, or other tests read it: the recode
    golden and the inputs of test_refine, test_core, test_acceptance and test_cli_fuzz."""
    named = {"recode_E2_wp6.txt", "E1.gt", "E2.gt", "E3.gt", "W12.codes", "E1m_bin_4.codes"}
    named |= {"E1m_bin_drop.codes"} | {name for runs, _, *files in CASES for name in [*files, *sum(runs, [])]}
    assert sorted(path.name for path in GOLDEN.iterdir() if path.name not in named) == []


def test_validate_ok(capsys, e2_path):
    code, out, err = run_cli(capsys, "validate", e2_path)
    assert (code, out, err) == (0, "ok\n", "")


def test_validate_broken(capsys, tmp_path):
    broken = tmp_path / "broken.gt"
    broken.write_text("GEOTYPE 1\nn=1\nh=2\nv=1\nmap (1,1)->(1,1) +\nmap (1,2)->(1,1) +\n")
    code, out, err = run_cli(capsys, "validate", str(broken))
    assert code == 1
    assert "Σh ≠ Σv" in out


def test_alpha_and_invert(capsys, e2_path):
    code, out, _ = run_cli(capsys, "alpha", e2_path)
    assert (code, out) == (0, "4\n")
    code, out, _ = run_cli(capsys, "invert", e2_path)
    assert code == 0
    assert out == Path(e2_path).read_text()  # E2 is self-inverse


def test_incidence_and_checks(capsys, e1_path, e2_path):
    code, out, _ = run_cli(capsys, "incidence", e2_path)
    assert (code, out) == (0, "1,1\n1,1\n")
    code, out, _ = run_cli(capsys, "incidence", e1_path)
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(capsys, "incidence", e2_path, "--check", "binary")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "incidence", e1_path, "--check", "mixing")
    assert (code, out) == (0, "true\n")


def test_orbits(capsys, e2_path):
    code, out, _ = run_cli(capsys, "orbits", e2_path, "--max-period", "2")
    assert code == 0
    assert out == "CODE 1\nCODE 2\nCODE 1 2\n"


def test_period_bound_beyond_the_recursion_limit(capsys, tmp_path):
    path = tmp_path / "E0.gt"
    path.write_text(serialize(make_e0()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "orbits", str(path), "--max-period", "1500")
    assert (code, out) == (0, "CODE 1\n")
    code, out, _ = run_cli(capsys, "wp", str(path), "--max-period", "1500")
    assert (code, out) == (0, serialize(make_e0()))


def test_orbits_negative_period_is_a_usage_error(capsys, e2_path):
    with pytest.raises(SystemExit) as exc:
        main(["orbits", e2_path, "--max-period", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert "--max-period must be nonnegative" in captured.err


def test_classify(capsys, e2_path):
    code, out, _ = run_cli(capsys, "classify", e2_path, "--code", "1 | 2 | 2")
    assert (code, out) == (0, "corner-leaf\n")
    code, out, _ = run_cli(capsys, "classify", e2_path, "--code", "1 2 | | 1 2")
    assert (code, out) == (0, "interior\n")


def test_srefine_boundary_error(capsys, e2_path, tmp_path):
    codes = tmp_path / "W.codes"
    codes.write_text("CODE 1\n")
    code, out, err = run_cli(capsys, "srefine", e2_path, "--codes", str(codes))
    assert code == 1
    assert out == ""
    assert "s-boundary code" in err
    assert err.startswith("BoundaryCodeError")


def test_srefine_drop_boundary_warns(capsys, e2_path, w12_path, tmp_path):
    codes = tmp_path / "W.codes"
    codes.write_text("CODE 1\nCODE 1 2\n")
    code, out, err = run_cli(capsys, "srefine", e2_path, "--codes", str(codes), "--drop-boundary")
    assert code == 0
    assert out == run_cli(capsys, "srefine", e2_path, "--codes", w12_path)[1]
    assert "dropped 1 boundary code" in err


@pytest.mark.parametrize("command", ["srefine", "urefine", "classify"])
def test_an_aliasing_symbol_exits_1(capsys, e2_path, tmp_path, command):
    """On E2 the step (1, 4) has the branch-table key of (2, 1); it is a
    symbol out of range, exit code 1, not an admissible step."""
    codes = tmp_path / "W.codes"
    codes.write_text("CODE 1 4\n")
    options = ["--code", "1 | | 1 4"] if command == "classify" else ["--codes", str(codes)]
    code, out, err = run_cli(capsys, command, e2_path, *options)
    assert (code, out) == (1, "")
    assert err.startswith("AdmissibilityError: symbol out of range 1..2")


def test_urefine(capsys, e2_path, tmp_path):
    codes = tmp_path / "W.codes"
    codes.write_text("CODE 2\n")
    code, out, err = run_cli(capsys, "urefine", e2_path, "--codes", str(codes))
    assert code == 1
    assert "u-boundary code" in err


def test_wp(capsys, e2_path):
    """E2 has the corner property, so wp returns it unchanged; P = 0 is below every period."""
    code, out_wp, _ = run_cli(capsys, "wp", e2_path, "--max-period", "1")
    assert code == 0
    assert out_wp == Path(e2_path).read_text()
    code, _, err = run_cli(capsys, "wp", e2_path, "--max-period", "0")
    assert code == 1
    assert "P below" in err


def test_render_svg_rejects_a_symbol_above_n(capsys, e2_path, tmp_path):
    codes = tmp_path / "W.codes"
    codes.write_text("CODE 3 1\n")
    code, out, err = run_cli(capsys, "render", e2_path, "--format", "svg", "--codes", str(codes))
    assert (code, out) == (1, "")
    assert err == "AdmissibilityError: symbol out of range 1..2 in word (3, 1)\n"


def test_render_svg_rejects_a_step_with_two_strips(capsys, e1_path, tmp_path):
    """E1 is not binary: the code 1 is admissible, but its one step has two strips."""
    codes = tmp_path / "W.codes"
    codes.write_text("CODE 1\n")
    code, out, err = run_cli(capsys, "render", e1_path, "--format", "svg", "--codes", str(codes))
    assert (code, out) == (1, "")
    assert err == "NonBinaryError: square 1 has 2 strips into square 1\n"


def test_render_accepts_result_files(capsys, e2_path, w12_path, tmp_path):
    code, out, _ = run_cli(capsys, "srefine", e2_path, "--codes", w12_path)
    result_file = tmp_path / "result.txt"
    result_file.write_text(out)
    code, dot, _ = run_cli(capsys, "render", str(result_file), "--format", "dot")
    assert code == 0
    assert dot.startswith("digraph incidence {")


def test_render_rejects_a_malformed_type_block(capsys, e2_path, w12_path, tmp_path):
    """The type block of a result file is its first four lines and the map
    lines after them, so one map line too few or too many is a parse error."""
    _, out, _ = run_cli(capsys, "srefine", e2_path, "--codes", w12_path)
    lines = out.splitlines(keepends=True)
    alpha = 4 + sum(map(int, lines[2][2:].split(",")))
    for name, text, lineno in (
        ("short", lines[: alpha - 1] + lines[alpha:], alpha - 1),
        ("long", lines[:alpha] + ["map (1,1)->(1,1) +\n"] + lines[alpha:], alpha + 1),
    ):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(text))
        code, out, err = run_cli(capsys, "render", str(path), "--format", "dot")
        assert (code, out) == (2, "")
        assert err.startswith(f"ParseError: line {lineno}: ") and err.count("\n") == 1


def test_a_huge_v_is_an_invalid_type(capsys):
    """Every command that needs a valid type exits 1 on a v far past alpha,
    with one line on stderr; the golden cases of huge_v.gt hold what
    validate and alpha print."""
    path = str(GOLDEN / "huge_v.gt")
    for command in ("invert", "incidence", "bin", "codes", "orbits"):
        options = ["--max-period", "2"] if command == "orbits" else []
        code, out, err = run_cli(capsys, command, path, *options)
        assert (code, out) == (1, "")
        assert err.startswith("InvalidTypeError: ") and err.count("\n") == 1 and len(err) < 1024


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.gt"
    bad.write_text("not a geotype\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert err.startswith("ParseError")
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "missing.gt"))
    assert code == 2


@pytest.mark.parametrize("name", sorted(UNUSABLE_INTEGER_FILES))
@pytest.mark.parametrize(
    "command", [["validate"], ["render", "--format", "dot"]], ids=["validate", "render-dot"]
)
def test_unusable_integers_are_parse_errors(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.gt"
    path.write_text(UNUSABLE_INTEGER_FILES[name])
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: line ") and err.count("\n") == 1 and err.endswith("\n")


NOT_UTF8 = b"\xff\xfeGEOTYPE 1\n"


def test_non_utf8_type_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gt"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError") and "not UTF-8" in err


def test_non_utf8_codes_file_is_a_parse_error(capsys, tmp_path, e2_path):
    bad = tmp_path / "bad.codes"
    bad.write_bytes(b"CODE 1 2\n\xff\xfe\n")
    code, out, err = run_cli(capsys, "srefine", e2_path, "--codes", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError") and "not UTF-8" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["orbits"])  # missing required arguments
    assert exc.value.code == 2


def test_color_env_toggles_ansi(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.gt"
    bad.write_text("nope\n")
    monkeypatch.setenv("GEOTYPE_COLOR", "1")
    _, _, err = run_cli(capsys, "validate", str(bad))
    assert "\x1b[31m" in err
    monkeypatch.setenv("GEOTYPE_COLOR", "0")
    _, _, err = run_cli(capsys, "validate", str(bad))
    assert "\x1b[" not in err


def test_subprocess_byte_determinism(e2_path, w12_path):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "geotype", *argv],
            capture_output=True,
            check=True,
        ).stdout

    for argv in (
        ("bin", str(GOLDEN / "E1.gt")),
        ("codes", e2_path),
        ("srefine", e2_path, "--codes", w12_path),
        ("wp", e2_path, "--max-period", "2"),
        ("render", e2_path, "--format", "svg", "--codes", w12_path),
    ):
        assert run(*argv) == run(*argv)


def test_import_loads_neither_dataclasses_nor_inspect():
    """A CLI process pays for importing geotype; its records generate no
    code at import, so neither module is loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    script = "import sys, geotype, geotype.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True, text=True)
    assert loaded.stdout.split() == []
