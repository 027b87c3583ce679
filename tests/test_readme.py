"""The README's library example runs as written, and its CLI commands parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rankcal.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def test_library_in_a_nutshell_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in a nutshell", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lam, reason = proc.stdout.split()
    assert 0.0 < float(lam) <= 1.0
    assert reason in ("failed_to_reject", "exhausted_grid")


def readme_commands():
    """Every ``rankcal`` / ``python -m rankcal`` command in the README's bash blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["rankcal"]:
                commands.append(argv[1:])
            elif argv[:3] in (["python", "-m", "rankcal"], ["python3", "-m", "rankcal"]):
                commands.append(argv[3:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 11  # the CLI tour and both experiments
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: rankcal {shlex.join(argv)}")
