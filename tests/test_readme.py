"""README examples run as written, so a renamed or deleted public name fails here."""

import re
from pathlib import Path

from fracwave import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_python_quick_start_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("True ")


def test_ini_example_parses():
    (text,) = _blocks("ini")
    cfg = parse_config(text)
    assert cfg.label == "demo" and cfg.mollify
