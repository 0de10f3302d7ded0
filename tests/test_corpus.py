"""The shipped scenarios' output bytes, pinned in one file.

For each scenario in ``scenarios/`` the sha256 of four outputs is checked
against ``tests/corpus_digests.json``: the ``run --log`` event log, the
``run --format json`` stdout, the ``run`` table stdout and the ``fmt``
stdout.  Each run exits 0 and checks at least one assertion.  One ``run``
over many files writes the runs of its files joined, so these digests pin
its bytes too.  A change that alters any output on purpose re-pins the
corpus with the one command

    PYTHONPATH=src python tests/test_corpus.py

and says so.  The same digests must come out of fresh interpreters under
two ``PYTHONHASHSEED`` values, so no output depends on set or dict order
that hashing decides.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import fuzz_corpus
from rpoolsim.cli import main
from rpoolsim.scenario import ACTION_SPECS, DIRECTIVE_FIELDS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "scenarios").glob("*.scn"))
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue().encode()


@functools.cache
def _run_outputs(*paths: Path) -> dict[str, bytes]:
    """The ``--log`` event log, the ``--format json`` stdout and the table
    stdout of ``rpoolsim run`` over ``paths``, run once.  Each run exits 0,
    and each file checks at least one assertion."""
    argv = ["run", *map(str, paths)]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        table = _stdout([*argv, "--log", str(log)])
        outputs = {"log": log.read_bytes(), "json": _stdout([*argv, "--format", "json"])}
    reports = [json.loads(line) for line in outputs["json"].splitlines()]
    assert [r["scenario"] for r in reports if r["assertions"]] == [path.stem for path in paths]
    return {**outputs, "table": table}


def _digests(path: Path) -> dict[str, str]:
    """Output -> sha256 of that output's bytes, for one scenario."""
    outputs = {**_run_outputs(path), "fmt": _stdout(["fmt", str(path)])}
    return {name: _sha(data) for name, data in outputs.items()}


def corpus_digests() -> dict[str, dict[str, str]]:
    """Scenario stem -> output -> sha256 of that output's bytes."""
    return {path.stem: _digests(path) for path in CORPUS}


def test_the_digests_pin_every_scenario():
    assert sorted(json.loads(DIGESTS.read_text())) == [path.stem for path in CORPUS]


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_corpus_output_bytes_are_pinned(path):
    assert _digests(path) == json.loads(DIGESTS.read_text())[path.stem]


@pytest.mark.parametrize("output", ["log", "json", "table"])
def test_one_run_over_the_corpus_joins_the_runs_of_its_files(output):
    # so the digests of each file pin the bytes of a run over many files too
    joined = b"".join(_run_outputs(path)[output] for path in CORPUS)
    assert _run_outputs(*CORPUS)[output] == joined


@pytest.mark.parametrize("seed", ["0", "1"])
def test_corpus_output_bytes_do_not_depend_on_the_hash_seed(seed):
    program = "import json, test_corpus; print(json.dumps(test_corpus.corpus_digests()))"
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(DIGESTS.read_text())


def test_corpus_mutants_run_and_format_consistently(tmp_path):
    # a fixed seed and a count that runs in about 1.5 s; tests/fuzz_corpus.py
    # runs a deep pass from the command line
    codes, accepted = fuzz_corpus.fuzz(300, 0, tmp_path)
    assert sum(codes.values()) == 300 and set(codes) <= {0, 1, 2}
    assert accepted


#: field types that hold a name: an account's, a signer's, a pool's or a
#: book's (a ``targets`` entry is ``name:amount``)
_NAME_TYPES = {"name", "pool", "book", "signer", "targets"}


def _rename(text: str, rename) -> str:
    """``text`` with ``rename`` applied to each declared name and each
    name-typed field, but not to ``assert``'s ``kind=`` or to labels."""
    lines = []
    for line in text.splitlines():
        tokens = line.partition("#")[0].split()
        if not tokens:
            lines.append(line)
            continue
        if tokens[0] == "at":
            schema, first = ACTION_SPECS[tokens[2]], 3
        elif tokens[0] == "config":
            schema, first = DIRECTIVE_FIELDS["config"], 1
        else:  # account, signer, pool or book, then its name
            schema, first = DIRECTIVE_FIELDS.get(tokens[0], {}), 2
            tokens[1] = rename(tokens[1])
        for n, token in enumerate(tokens[first:], first):
            key, _, value = token.partition("=")
            kind = schema.get(key, ("",))[0]
            if kind == "targets":
                value = ",".join(
                    f"{rename(name)}:{amount}"
                    for name, amount in (part.rsplit(":", 1) for part in value.split(","))
                )
            elif kind in _NAME_TYPES and key != "kind":  # assert's kind names a check
                value = rename(value)
            tokens[n] = f"{key}={value}"
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def _run(path: Path, tmp: Path) -> list:
    """Exit code, log events and JSON report of ``rpoolsim run`` on ``path``."""
    out, log = io.StringIO(), tmp / "events.jsonl"
    with contextlib.redirect_stdout(out):
        code = main(["run", str(path), "--format", "json", "--log", str(log)])
    events = [json.loads(line) for line in log.read_text().splitlines()]
    return [code, events, json.loads(out.getvalue())]


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_renaming_every_name_in_reverse_order_changes_no_output(path, tmp_path):
    # a metamorphic relation: names are opaque, so mapping them onto fresh
    # names in the reverse of their order changes no verdict, and mapping
    # the names in the output back gives the same events and report
    names = set()
    _rename(path.read_text(), lambda name: names.add(name) or name)
    fresh = [f"name{n:03d}" for n in range(len(names))]
    forward = dict(zip(sorted(names), reversed(fresh)))
    back = {new: old for old, new in forward.items()}
    renamed = tmp_path / path.name
    renamed.write_text(_rename(path.read_text(), forward.__getitem__))

    def restore(value):
        if isinstance(value, dict):
            return {restore(key): restore(item) for key, item in value.items()}
        if isinstance(value, list):
            return [restore(item) for item in value]
        if isinstance(value, str):
            return re.sub(r"\bname\d{3}\b", lambda match: back[match[0]], value)
        return value

    assert restore(_run(renamed, tmp_path)) == _run(path, tmp_path)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n")
