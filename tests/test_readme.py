"""The README's runnable examples: the quick start prints what the README
says it prints, and the Library-use lines give the values their comments
state."""

import shlex
from pathlib import Path

import pytest

from evicrit import cli
from evicrit.core import Label

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(marker: str, fence: str = "```") -> str:
    """The body of the first fenced block after ``marker``."""
    rest = README.split(marker, 1)[1]
    return rest.split(fence, 1)[1].split("\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    script = block_after("Export the inputs, then run the full pipeline:", "```sh")
    commands = [shlex.split(command)
                for command in script.replace("\\\n", " ").split("\n") if command.strip()]
    assert [argv[0] for argv in commands] == ["python", "evicrit"]
    export, evaluate = commands
    assert export[1] == "-c"
    exec(export[2], {})
    assert cli.run(evaluate[1:]) == 0
    assert capsys.readouterr().out == block_after("which prints")
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_library_use_gives_the_values_its_comments_state():
    code = block_after("## Library use", "```python")
    scope: dict = {}
    exec(code, scope)
    mu, m, fused, pignistic = scope["mu"], scope["m"], scope["fused"], scope["pignistic"]
    assert "# ((M, 0.5), (H, 0.5)) active grades" in code
    assert mu.active() == ((Label.M, 0.5), (Label.H, 0.5))
    assert "# masses: {M}=0.4 {H}=0.4 {M,H}=0.2" in code
    assert {str(s): mass for s, mass in m.focal()} == pytest.approx(
        {"{M}": 0.4, "{H}": 0.4, "{M,H}": 0.2}, abs=1e-12)
    assert "fused.conflict_k                 # 0.376..." in code
    assert repr(fused.conflict_k).startswith("0.376")
    assert "# {VL: 0.0, L: 0.0, M: 0.5, H: 0.5, VH: 0.0}" in code
    assert {label.name: p for label, p in pignistic(fused.bpa).items()} == pytest.approx(
        {"VL": 0.0, "L": 0.0, "M": 0.5, "H": 0.5, "VH": 0.0}, abs=1e-12)
