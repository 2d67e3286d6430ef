"""The README's Python example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert "{'psi1': 4, 'psi2': 2, 'psi3': 0}" in printed
    assert "((1, 2),)" in printed
