"""Every ``$ drcalc ...`` example of the README, run and compared byte for byte.

The presentation file the examples read is written exactly as the
README shows it, into a temporary working directory.
"""

import re
import shlex
from pathlib import Path

import pytest

from drcalc import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
EXAMPLES = [b for b in BLOCKS if b.startswith("$ drcalc ")]
FAT = next(b for b in BLOCKS if b.startswith("# fat.pres"))


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4
    assert any("--file fat.pres" in b for b in EXAMPLES)


@pytest.mark.parametrize(
    "block", EXAMPLES, ids=lambda b: b.splitlines()[0][len("$ drcalc "):]
)
def test_readme_example(block, tmp_path, monkeypatch, capsys):
    (tmp_path / "fat.pres").write_text(FAT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    command, expected = block.split("\n", 1)
    code = cli.main(shlex.split(command[len("$ drcalc "):]))
    assert code == 0
    assert capsys.readouterr().out == expected
