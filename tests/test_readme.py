"""Every ``$ drcalc ...`` example of the README, run and compared byte for byte.

The presentation file the examples read is written exactly as the
README shows it, into a temporary working directory.  The python
"Library tour" is executed as it stands, and its prints are checked
against the outputs its comments give.
"""

import re
import shlex
from pathlib import Path

import pytest

from drcalc import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```\n(.*?)^```$", TEXT, re.M | re.S)
EXAMPLES = [b for b in BLOCKS if b.startswith("$ drcalc ")]
FAT = next(b for b in BLOCKS if b.startswith("# fat.pres"))
TOUR = re.search(
    r"^## Library tour\n\n```python\n(.*?)^```$", TEXT, re.M | re.S
).group(1)


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


def test_readme_library_tour(capsys):
    comments = [
        line.split("# ", 1)[1]
        for line in TOUR.splitlines()
        if line.startswith("print(")
    ]
    assert comments == [
        "H^{-1} dim=0 stable=true ...",
        "cartier k=2 verdict=equal",
        "infeasible",
        "[0, 0, 0, 7, 23, -29, 0, 0, 0, 0]",
    ]
    exec(compile(TOUR, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the stage report runs on past the first line the comment shows;
    # every other print is one line
    assert out[0] == "H^{-1} dim=0 stable=true"
    assert out[-3:] == comments[1:]
