"""Package data: every file shipped under `supervisord/data/` has a reader."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "supervisord" / "data"
CODE_DIRS = ("src", "perfbench", "demos")


def test_every_data_file_is_named_by_code():
    code = "\n".join(
        path.read_text(encoding="utf-8")
        for directory in CODE_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    )
    files = sorted(p for p in DATA.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    assert files
    unread = [str(p.relative_to(DATA)) for p in files if f'"{p.name}"' not in code]
    assert unread == []
