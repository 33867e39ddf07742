"""README's examples, run as written, and its lists of trace columns and
sidecar fields."""

import dataclasses
import re
from pathlib import Path

import pytest

from riemarc.arc import DriverConfig, SolverConfig
from riemarc.bench import TRACE_COLUMNS, RunRecord
from riemarc.cli import main as cli_main
from riemarc.trust_region import TrustRegionConfig

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


def _names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _bullet_names(label: str) -> list[str]:
    """The backticked names of README's bullet ``- <label>: ...``, in
    order."""
    text = _README.read_text(encoding="utf-8")
    bullet = re.search(rf"^- {label}: (.*?)\n(?=- |\n)", text, re.MULTILINE | re.DOTALL)
    return re.findall(r"`([^`]*)`", bullet.group(1))


def test_readme_names_exactly_the_trace_columns():
    """README's trace bullet names ``TRACE_COLUMNS``, in order: the header
    of every solver's trace."""
    assert _bullet_names("trace columns") == list(TRACE_COLUMNS)


@pytest.mark.parametrize(
    "label, fields",
    [
        ("shared fields", _names(DriverConfig)),
        (
            "step rule",
            (_names(SolverConfig) | _names(TrustRegionConfig)) - _names(DriverConfig),
        ),
        ("the run", _names(RunRecord)),
    ],
)
def test_readme_sidecar_lists_name_exactly_the_fields(label, fields):
    """Each sidecar bullet in README names, in backticks, exactly the
    fields it documents: the shared config's, those the two step rules
    add, and ``RunRecord``'s."""
    assert set(_bullet_names(label)) == fields
