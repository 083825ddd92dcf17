"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch):
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no python block under 'Library quick start'"
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), str(README), "exec"), {})
    assert (tmp_path / "out" / "mse.csv").is_file()
