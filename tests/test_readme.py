"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from clic.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_readme_clic_examples_run(capsys, monkeypatch):
    """Every `clic` line runs cleanly, and a line's comment, where it
    shows the output, is that output."""
    monkeypatch.chdir(ROOT)
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("clic ")]
    assert len(lines) == 8
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        assert code in (0, 1), line
        out, err = capsys.readouterr()
        assert err == "", line
        if line.startswith("clic translate "):
            assert out.strip() == line.partition("#")[2].strip(), line


def test_readme_library_example_runs(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    (code,) = [block for block in _blocks("python")
               if "from clic import" in block]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
