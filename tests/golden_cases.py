"""The CLI's golden cases: ``tests/test_cli.py`` runs each through ``cli.main``,
and ``python tests/golden_cases.py geotype`` against a command prefix.

A case is ``(runs, exit_code, stdout_file, stderr_file)``: each argv list in
``runs`` runs in ``tests/golden``, ``GEOTYPE_COLOR`` unset, and exits with
``exit_code``; the runs' stdout and stderr, joined, equal the two files
(``None`` is empty output).  The script prints a unified diff per mismatch
and exits 1 if any case fails."""

import difflib
import os
import shlex
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

VERDICTS = ("1 | 2 | 2", "1 2 | | 2", "1 | | 1 2", "1 2 | | 1 2")  # one classify spec per verdict
BIN4 = "bin_E1m.gt --codes E1m_bin_4.codes"
DROP = "bin_E1m.gt --codes E1m_bin_drop.codes --drop-boundary"

# Each run is written as one shell-quoted command line.
CASES = [([shlex.split(line) for line in runs], *rest) for runs, *rest in [
    (["bin E1.gt"], 0, "E2.gt", None),
    # bin(E1m) keeps E1m's orientation-reversing strips (2,1) and (2,2), eps = -1.
    (["bin E1m.gt"], 0, "bin_E1m.gt", None),
    # E3 is not self-inverse; inverting its inverse gives E3 back.
    (["invert E3.gt"], 0, "invert_E3.txt", None),
    (["invert invert_E3.txt"], 0, "E3.gt", None),
    (["orbits E3.gt --max-period 6"], 0, "orbits_E3_6.txt", None),
    (["orbits E2.gt --max-period 10"], 0, "orbits_E2_10.txt", None),
    (["incidence E3.gt"], 0, "E3_incidence.txt", None),
    (["codes E2.gt"], 0, "codes_E2.txt", None),
    ([f"classify E2.gt --code '{spec}'" for spec in VERDICTS], 0, "classify_E2.txt", None),
    # On E3 the corner s-pass cuts nothing and the u-pass takes n from 4 to 8.
    (["corner E3.gt"], 0, "corner_E3.txt", None),
    (["corner E2.gt"], 0, "E2.gt", None),  # E2 has the corner property: both passes cut nothing
    (["corner E2.gt --along W12.codes"], 0, "corner_E2_along_w12.txt", None),
    (["wp E2.gt --max-period 4"], 0, "wp_E2_4.txt", None),  # n = 62
    (["wp E2.gt --max-period 6"], 0, "wp_E2_6.txt", None),  # n = 314
    (["srefine E2.gt --codes W12.codes"], 0, "srefine_E2_w12.txt", None),
    (["urefine E2.gt --codes W12.codes"], 0, "urefine_E2_w12.txt", None),
    # The oracle agrees and prints the refined type: E2 cut along W12 is E3.
    (["oracle-check E2.gt --codes W12.codes"], 0, "E3.gt", None),
    (["srefine E1.gt --codes W12.codes"], 1, None, "srefine_E1_w12.err"),  # E1 is not binary
    # The family lists the orbit of (1 2) twice.
    (["srefine E2.gt --codes W12_twice.codes"], 1, None, "srefine_E2_w12_twice.err"),
    # A chiral orbit twice: named in forward time, 1 1 2 1 2 2, not by its reversed key 1 1 2 2 1 2.
    (["urefine E2.gt --codes chiral_twice.codes"], 1, None, "urefine_E2_chiral_twice.err"),
    # Cut lines behind bin(E1m)'s reversing strips sort by negated kneading keys; W12 on E2 has none.
    ([f"srefine {BIN4}"], 0, "srefine_E1m_bin_4.txt", None),
    ([f"urefine {BIN4}"], 0, "urefine_E1m_bin_4.txt", None),
    ([f"oracle-check {BIN4}"], 0, "oracle_E1m_bin_4.txt", None),  # the oracle's eps = -1 bands
    # The orbit walk runs through the eps = -1 strips (2,1) and (2,2).
    ([f"render {BIN4} --format svg"], 0, "E1m_bin_4.svg", None),
    # The boundary orbit (1) twice, between codes through reversing strips: both dropped, one warning.
    ([f"srefine {DROP}"], 0, "srefine_E1m_bin_drop.txt", "srefine_E1m_bin_drop.err"),
    ([f"urefine {DROP}"], 0, "urefine_E1m_bin_drop.txt", "urefine_E1m_bin_drop.err"),
    (["render E2.gt --format dot"], 0, "E2_incidence.dot", None),
    # W12's red cut lines sit at the exact cut heights 2/3 and 1/3.
    (["render E2.gt --format svg --codes W12.codes"], 0, "E2_w12.svg", None),
]]


def expected(case) -> tuple[list[int], str, str]:
    """The exit code of each run, then the expected stdout and stderr."""
    runs, exit_code, *files = case
    out, err = ("" if name is None else (GOLDEN / name).read_text(encoding="utf-8") for name in files)
    return [exit_code] * len(runs), out, err


def outcome(case, run) -> tuple[list[int], str, str]:
    """``run(argv)`` gives (exit code, stdout, stderr); the runs' codes, then their outputs joined."""
    codes, outs, errs = zip(*map(run, case[0]))
    return list(codes), "".join(outs), "".join(errs)


def main(prefix: list[str]) -> int:
    env = {key: value for key, value in os.environ.items() if key != "GEOTYPE_COLOR"}

    def run(argv):
        proc = subprocess.run([*prefix, *argv], cwd=GOLDEN, env=env, capture_output=True)
        return proc.returncode, *(out.decode(errors="surrogateescape") for out in (proc.stdout, proc.stderr))

    failed = 0
    for case in CASES:
        got, want = outcome(case, run), expected(case)
        if got == want:
            continue
        failed += 1
        print(f"FAIL {'; '.join(map(shlex.join, case[0]))}: exit {got[0]}, expected {want[0]}")
        for name, text, golden in zip(("stdout", "stderr"), got[1:], want[1:]):
            sys.stdout.writelines(difflib.unified_diff(
                golden.splitlines(True), text.splitlines(True), f"expected {name}", name))
    print(f"{len(CASES) - failed} of {len(CASES)} golden cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) if sys.argv[1:] else "usage: python tests/golden_cases.py COMMAND...")
