"""The shipped scenarios' output bytes, pinned.

For each scenario in ``scenarios/`` the sha256 of four outputs is checked
against ``tests/corpus_digests.json``: the ``run --log`` event log, the
``run --format json`` stdout, the ``run`` table stdout and the ``fmt``
stdout.  A change that alters any of them on purpose re-pins the file with

    PYTHONPATH=src python tests/test_corpus.py

and says so.  The same digests must come out of fresh interpreters under
two ``PYTHONHASHSEED`` values, so no output depends on set or dict order
that hashing decides.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import fuzz_corpus
from rpoolsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "scenarios").glob("*.scn"))
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue().encode()


def corpus_digests() -> dict[str, dict[str, str]]:
    """Scenario stem -> output -> sha256 of that output's bytes."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        for path in CORPUS:
            table = _stdout(["run", str(path), "--log", str(log)])
            digests[path.stem] = {
                "log": _sha(log.read_bytes()),
                "json": _sha(_stdout(["run", str(path), "--format", "json"])),
                "table": _sha(table),
                "fmt": _sha(_stdout(["fmt", str(path)])),
            }
    return digests


def test_corpus_output_bytes_are_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == [path.stem for path in CORPUS]
    assert corpus_digests() == pinned


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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n")
