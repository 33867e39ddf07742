"""README's examples, run as written."""

import re
from pathlib import Path

from riemarc.cli import main as cli_main

_README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_block(after: str, language: str = "") -> str:
    """The first fenced code block of ``language`` after the text
    ``after`` in README."""
    text = _README.read_text(encoding="utf-8")
    fence = re.compile(rf"^```{language}\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    return fence.search(text, text.index(after)).group(1)


def test_readme_examples_run(tmp_path, capsys):
    """The library example runs and prints its trace, and the plan-file
    example runs through ``riemarc run`` and passes ``riemarc verify``."""
    library = _fenced_block("## Library use", "python")
    exec(compile(library, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Outcome.")

    plan = tmp_path / "plan.txt"
    plan.write_text(_fenced_block("A plan file lists cases"), encoding="utf-8")
    out = tmp_path / "runs"
    assert cli_main(["run", "--plan", str(plan), "--out", str(out)]) == 0
    assert cli_main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok, digest ")
