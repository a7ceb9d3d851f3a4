"""Acceptance gate: every criterion at its stated tolerance, one line each.

The criteria are the exact functions `doubletop selftest` runs; here each
gets its own test so `pytest -v` shows an individual pass/fail line.
"""

import json
import re
import shlex
import time
from pathlib import Path

import pytest

from doubletop.catdata import dump_category, zoo
from doubletop.cli import SELFTEST_CRITERIA, SelftestContext, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def ctx():
    return SelftestContext()


@pytest.mark.parametrize(
    "num,label,fn", SELFTEST_CRITERIA,
    ids=["%02d_%s" % (num, label.replace(" ", "_"))
         for num, label, _ in SELFTEST_CRITERIA])
def test_criterion(num, label, fn, ctx):
    ok, detail = fn(ctx)
    assert ok, "criterion %d (%s): %s" % (num, label, detail)


def test_full_suite_runtime_single_core():
    # the whole acceptance run must finish well inside 60 s on one core
    t0 = time.perf_counter()
    fresh = SelftestContext()
    for _, _, fn in SELFTEST_CRITERIA:
        ok, detail = fn(fresh)
        assert ok, detail
    assert time.perf_counter() - t0 < 60.0


def test_readme_library_block_runs():
    # the README's ```python example runs as written, so a changed signature
    # of a function it calls fails here
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_command_line_block_runs(capsys):
    # each `doubletop ...` line of the README's "Command line" block, with
    # its continuations joined and its comment dropped, exits 0
    text = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", text, re.S | re.M).group(1)
    lines = [line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert len(commands) == 8 and all(cmd[0] == "doubletop" for cmd in commands)
    for cmd in commands:
        assert main(cmd[1:]) == 0, " ".join(cmd)
        capsys.readouterr()


def test_readme_category_block_is_dump_category():
    # the README's category example is what it says it is, field for field,
    # the four sixj basis indices included
    said, block = re.search(r"^Category JSON \(this one is `(.*?)`\):\n\n```json\n(.*?)^```",
                            README.read_text(), re.S | re.M).groups()
    assert said == 'dump_category(zoo("vec_z2"))'
    doc = json.loads(block)
    assert doc == dump_category(zoo("vec_z2"))
    assert all(ent["basis"] == [0, 0, 0, 0] for ent in doc["sixj"])
