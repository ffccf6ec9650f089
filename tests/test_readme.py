"""Every python block of README.md runs to completion from a scratch working
directory, and every ``dpknockoff`` command of its sh blocks parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dpknockoff
from dpknockoff import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("dpknockoff ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    src = os.path.dirname(os.path.dirname(dpknockoff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("command", COMMANDS, ids=[c.split()[1] for c in COMMANDS])
def test_readme_command_parses(command):
    # argparse exits on an unknown flag, a missing required one or a bad value
    args = cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
    assert args.func.__name__ == f"cmd_{args.command}"
