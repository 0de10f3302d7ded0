"""Corpus-mutation fuzzing of the command line.

Each mutant is a shipped scenario with one to three small changes: an INT
value set to a boundary value, a name or label swapped for another name
from the same file, a boolean flipped or a rate changed, a step line
duplicated or dropped, or a step's time moved.  For every mutant:

- ``rpoolsim run`` exits 0, 1 or 2, never 3 (an internal error), and
  raises nothing;
- ``rpoolsim fmt`` exits 2 exactly when ``run`` does: the log path is
  writable, so ``run`` exits 2 only for a file it cannot read, parse or
  build a world from, which is what ``fmt`` loads too;
- if ``rpoolsim fmt`` accepts it, formatting the output again changes
  nothing, and ``run`` of the formatted script gives the same exit code,
  the same ``--format json`` output and the same ``--log`` bytes.

The mutants come from a seed, mutant ``i`` of seed ``s`` from its own
generator, so a failure names the one mutant to replay.  A deep pass:

    PYTHONPATH=src python tests/fuzz_corpus.py --count 20000 --seed 7

prints the mix of ``(run, fmt)`` exit-code pairs.  The library is imported
from ``src/``; nothing outside the standard library is needed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import random
import re
import sys
import tempfile
import time
from pathlib import Path

from rpoolsim.cli import main

CORPUS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))

#: a line's atoms: the words between whitespace, ``=``, ``,`` and ``:``
_ATOM = re.compile(r"[^\s=,:]+")
_INT = re.compile(r"\d+")
_RATE = re.compile(r"\d*\.\d*")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")

#: the atom kinds a mutation rewrites in place
ATOM_KINDS = ("int", "name", "bool", "rate")
INT_BOUNDARIES = (0, 1, 2**62, 2**63 - 1)
RATES = ("0", "0.000001", "0.4", "0.5", "0.999999", "1")
_TIME_SHIFTS = (-1, 1, 10, 86_400)


class Script:
    """One scenario's lines, without comments, and the atoms a mutation
    may change: every value, every declared name and every step's time,
    but no directive, action or field key."""

    def __init__(self, text: str) -> None:
        self.lines = [line.split("#", 1)[0].rstrip() for line in text.split("\n")]
        self.lines = [line for line in self.lines if line]
        self.steps = [i for i, line in enumerate(self.lines) if line.split()[0] == "at"]
        self.atoms: dict[str, list[tuple[int, int, int]]] = collections.defaultdict(list)
        for index, line in enumerate(self.lines):
            # a step's "at" and action, or a directive's keyword
            keywords = (0, 2) if index in self.steps else (0,)
            for position, match in enumerate(_ATOM.finditer(line)):
                if position in keywords or line[match.end() : match.end() + 1] == "=":
                    continue  # a keyword or a field key
                self.atoms[_kind(match.group())].append((index, *match.span()))
        self.names = sorted({self.atom(at) for at in self.atoms["name"]})

    def atom(self, at: tuple[int, int, int]) -> str:
        index, start, end = at
        return self.lines[index][start:end]


def _kind(atom: str) -> str:
    if atom in ("true", "false"):
        return "bool"
    if _INT.fullmatch(atom):
        return "int"
    if _RATE.fullmatch(atom):
        return "rate"
    if _NAME.fullmatch(atom):
        return "name"
    return "other"


def _replace(lines: list[str], at: tuple[int, int, int], value: str) -> None:
    index, start, end = at
    lines[index] = lines[index][:start] + value + lines[index][end:]


def mutate(script: Script, rng: random.Random) -> str:
    """The script with one to three mutations, as text.  Atom changes are
    made right to left within a line, and before any line is duplicated or
    dropped, so each change still finds the atom it picked."""
    lines = list(script.lines)
    picks = []
    for _ in range(rng.randint(1, 3)):
        choices = [kind for kind in ATOM_KINDS if script.atoms[kind]]
        choices += ["time", "line"] if script.steps else []
        picks.append(rng.choice(choices))
    changes: dict[tuple[int, int, int], str] = {}
    for kind in (kind for kind in picks if kind in ATOM_KINDS):
        at = rng.choice(script.atoms[kind])
        old = script.atom(at)
        if kind == "int":
            value = rng.choice([*INT_BOUNDARIES, int(old) - 1, int(old) + 1])
            changes[at] = str(value)
        elif kind == "name":
            changes[at] = rng.choice(script.names)
        elif kind == "bool":
            changes[at] = "false" if old == "true" else "true"
        else:
            changes[at] = rng.choice(RATES)
    for kind in (kind for kind in picks if kind == "time"):
        index = rng.choice(script.steps)
        at = next(at for at in script.atoms["int"] if at[0] == index)
        if rng.random() < 0.5:
            other = script.lines[rng.choice(script.steps)]
            changes[at] = other.split()[1]
        else:
            changes[at] = str(max(0, int(script.atom(at)) + rng.choice(_TIME_SHIFTS)))
    for at in sorted(changes, reverse=True):
        _replace(lines, at, changes[at])
    for _ in (kind for kind in picks if kind == "line"):
        index = rng.choice(script.steps)
        if rng.random() < 0.5:
            lines.insert(index, lines[index])
        else:
            lines[index] = ""
    return "\n".join(line for line in lines if line) + "\n"


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(path: Path, log: Path) -> tuple[int, str, bytes | None]:
    """``run --format json --log``: exit code, stdout and log bytes (None
    when the run stopped before writing a log)."""
    log.unlink(missing_ok=True)
    code, out, err = _cli(["run", str(path), "--format", "json", "--log", str(log)])
    assert code in (0, 1, 2), f"run exited {code}:\n{err}"
    return code, out, log.read_bytes() if log.exists() else None


def check_mutant(text: str, stem: str, workdir: Path) -> tuple[int, int]:
    """Run the checks above on one mutant; return ``run``'s and ``fmt``'s
    exit codes.  The formatted copy keeps the mutant's file stem, which
    names the scenario in every output."""
    mutant = workdir / "mutant" / f"{stem}.scn"
    formatted = workdir / "formatted" / f"{stem}.scn"
    mutant.parent.mkdir(exist_ok=True)
    formatted.parent.mkdir(exist_ok=True)
    mutant.write_text(text)
    outcome = _run(mutant, workdir / "mutant.log")
    fmt_code, canonical, _ = _cli(["fmt", str(mutant)])
    assert (fmt_code == 2) == (outcome[0] == 2), f"run exited {outcome[0]}, fmt {fmt_code}"
    if fmt_code != 0:
        return outcome[0], fmt_code
    formatted.write_text(canonical)
    again_code, again, _ = _cli(["fmt", str(formatted)])
    assert (again_code, again) == (0, canonical), "fmt is not at a fixed point"
    assert _run(formatted, workdir / "formatted.log") == outcome, "fmt changed what run does"
    return outcome[0], fmt_code


def fuzz(count: int, seed: int, workdir: Path) -> tuple[collections.Counter, int]:
    """Check ``count`` mutants of seed ``seed``; return the tally of
    ``run``'s exit codes and how many mutants ``fmt`` accepted."""
    pairs = fuzz_pairs(count, seed, workdir)
    codes: collections.Counter = collections.Counter()
    for (code, _), n in pairs.items():
        codes[code] += n
    return codes, sum(n for (_, fmt_code), n in pairs.items() if fmt_code == 0)


def fuzz_pairs(count: int, seed: int, workdir: Path) -> collections.Counter:
    """Check ``count`` mutants of seed ``seed``; return the tally of their
    ``(run, fmt)`` exit-code pairs."""
    scripts = [(path.stem, Script(path.read_text())) for path in CORPUS]
    pairs: collections.Counter = collections.Counter()
    for index in range(count):
        rng = random.Random(f"{seed}/{index}")
        stem, script = rng.choice(scripts)
        text = mutate(script, rng)
        try:
            pairs[check_mutant(text, stem, workdir)] += 1
        except Exception as exc:  # name the mutant, whatever failed
            raise AssertionError(f"seed {seed} mutant {index} of {stem}: {exc!r}\n{text}") from exc
    return pairs


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        pairs = fuzz_pairs(args.count, args.seed, Path(workdir))
    seconds = time.perf_counter() - start
    mix = ", ".join(f"{pair} {pairs[pair]}" for pair in sorted(pairs))
    print(f"{args.count} mutants of seed {args.seed} in {seconds:.1f} s: (run, fmt) exit codes {mix}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
