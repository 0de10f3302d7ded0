"""The four demos run end to end and print exactly what they printed when
their output was last reviewed: any change to a demo's stdout moves its
pinned sha256.  README's quick start runs too."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "flashloan_defense.py": "99ca9aa90edeb677adfaefa38c3d12105777f048f34fd24a88f7743a6020b567",
    "lp_shorting_attack.py": "e6e6f6252d595786bad5d2725d2127ffc49dc7c35bf5745f5f4d7928e931d1fe",
    "orderbook_session.py": "ba7c9281235e079b9c5e1db00d5982fdcd095d70c0638d595f5fde2f5b80dcc7",
    "recovery_walkthrough.py": "45b9acdd2ba3f5ddb773125f56fe56f2a62323ce3142852597979eacb13560c8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["base"].balance("bob") == 50
