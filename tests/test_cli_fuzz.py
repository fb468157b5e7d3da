"""Seeded fuzz of the CLI: mutated golden type and code files must end in a
clean exit (0, 1 or 2) with a one-line diagnostic, never an uncaught
exception."""

from __future__ import annotations

import random
from pathlib import Path

from geotype.cli import main

GOLDEN = Path(__file__).parent / "golden"
TYPES = ("E1.gt", "E2.gt", "E3.gt", "srefine_E2_w12.txt")
CODES = ("W12.codes",)
SEED = 20241018
CASES = 300
CASES_PER_COMMAND = 30


def _mutate_digit(rng: random.Random, line: str, n: int) -> str:
    """Replace one digit of the line by 0, -1, n + 1, n + 2, 9, a letter or nothing."""
    digits = [m for m, ch in enumerate(line) if ch.isdigit()]
    if not digits:
        return line
    m = rng.choice(digits)
    return line[:m] + rng.choice(["0", "-1", str(n + 1), str(n + 2), "9", "x", ""]) + line[m + 1:]


def _mutate(rng: random.Random, text: str, n: int) -> str:
    """Delete, duplicate or swap lines, flip a sign, truncate, or change a digit."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(6)
    if kind == 0 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif kind == 1:
        k = rng.randrange(len(lines))
        lines.insert(k, lines[k])
    elif kind == 2 and len(lines) > 1:
        a, b = rng.sample(range(len(lines)), 2)
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == 3:
        k = rng.randrange(len(lines))
        lines[k] = lines[k].replace("+", "-") if "+" in lines[k] else lines[k].replace("-", "+")
    elif kind == 4:
        return text[: rng.randrange(len(text) + 1)]
    else:
        k = rng.randrange(len(lines))
        lines[k] = _mutate_digit(rng, lines[k], n)
    return "".join(lines)


def _random_codes(rng: random.Random, n: int) -> str:
    """Code lines over 1..n+2, so that some symbols lie above n."""
    words = [
        [rng.randint(1, n + 2) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 3))
    ]
    return "".join("CODE " + " ".join(map(str, w)) + "\n" for w in words)


def _commands(type_path: str, codes_path: str) -> list[list[str]]:
    """Every subcommand but ``classify`` (fuzzed below), with each of its flags."""
    return [
        ["validate", type_path],
        ["invert", type_path],
        ["alpha", type_path],
        ["incidence", type_path],
        ["incidence", type_path, "--check", "binary"],
        ["incidence", type_path, "--check", "mixing"],
        ["orbits", type_path, "--max-period", "3"],
        ["bin", type_path],
        ["codes", type_path],
        ["corner", type_path],
        ["corner", type_path, "--along", codes_path],
        ["srefine", type_path, "--codes", codes_path],
        ["srefine", type_path, "--codes", codes_path, "--drop-boundary"],
        ["urefine", type_path, "--codes", codes_path],
        ["urefine", type_path, "--codes", codes_path, "--drop-boundary"],
        ["wp", type_path, "--max-period", "3"],
        ["oracle-check", type_path, "--codes", codes_path],
        ["render", type_path, "--format", "svg", "--codes", codes_path],
        ["render", type_path, "--format", "dot"],
    ]


def test_mutated_inputs_exit_cleanly(capsys, tmp_path):
    rng = random.Random(SEED)
    type_file = tmp_path / "T.gt"
    codes_file = tmp_path / "W.codes"
    exits: dict[int, int] = {}
    above_n = 0
    commands = _commands(str(type_file), str(codes_file))
    for case in range(CASES_PER_COMMAND * len(commands)):
        type_text = (GOLDEN / rng.choice(TYPES)).read_text(encoding="utf-8")
        n = int(type_text.splitlines()[1].removeprefix("n="))
        if rng.random() < 0.3:
            codes_text = _random_codes(rng, n)
        else:
            codes_text = (GOLDEN / rng.choice(CODES)).read_text(encoding="utf-8")
        if rng.random() < 0.6:
            type_text = _mutate(rng, type_text, n)
        else:
            codes_text = _mutate(rng, codes_text, n)
        above_n += any(
            tok.isdigit() and int(tok) > n for tok in codes_text.replace("\n", " ").split(" ")
        )
        type_file.write_text(type_text, encoding="utf-8")
        codes_file.write_text(codes_text, encoding="utf-8")
        argv = commands[case % len(commands)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, type_text, codes_text)
        if code == 1 and argv[0] == "validate":
            assert out.startswith("violation: ") and err == "", (argv, out, err)
        elif code:
            assert err.count("\n") == 1 and "Error: " in err, (argv, err)
        exits[code] = exits.get(code, 0) + 1
    assert exits.get(1, 0) >= 30 and exits.get(2, 0) >= 30, exits
    assert above_n >= 30


def _symbol(rng: random.Random, n: int) -> int:
    """Mostly a rectangle 1..n, else one of -1, 0, n + 1 and n + 2."""
    return rng.randint(1, n) if rng.random() < 0.85 else rng.choice((-1, 0, n + 1, n + 2))


def _random_spec(rng: random.Random, n: int) -> str:
    """Usually three parts, sometimes 2 or 4, each of 0 to 3 symbols."""
    parts = rng.choice((2, 3, 3, 3, 3, 3, 3, 4))
    return " | ".join(
        " ".join(str(_symbol(rng, n)) for _ in range(rng.choice((0, 1, 1, 2, 2, 3))))
        for _ in range(parts)
    )


def test_classify_random_specs_exit_cleanly(capsys):
    rng = random.Random(SEED + 1)
    exits: dict[int, int] = {}
    for _ in range(CASES):
        name = rng.choice(("E1.gt", "E2.gt", "E3.gt"))
        n = int((GOLDEN / name).read_text(encoding="utf-8").splitlines()[1].removeprefix("n="))
        spec = _random_spec(rng, n)
        code = main(["classify", str(GOLDEN / name), f"--code={spec}"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (name, spec)
        if code == 0:
            assert out.count("\n") == 1 and err == "", (name, spec, out, err)
        else:
            assert out == "" and err.count("\n") == 1 and "Error: " in err, (name, spec, err)
        exits[code] = exits.get(code, 0) + 1
    assert min(exits.get(code, 0) for code in (0, 1, 2)) >= 10, exits
