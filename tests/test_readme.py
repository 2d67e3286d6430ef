"""The README's examples run as written: the Python block prints what it
says, and every ``walkpovm`` line of the CLI block exits 0."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from conftest import cli_options
from walkpovm import cli
from walkpovm.povm import scenario_schedule

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_example_runs(capsys):
    blocks = _blocks("python")
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert "{'psi1': 4, 'psi2': 2, 'psi3': 0}" in printed
    assert "((1, 2),)" in printed


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    lines = [line.split("#")[0] for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("walkpovm ")]
    assert lines, "README has no walkpovm command line"
    (tmp_path / "my-schedule.json").write_text(scenario_schedule("sic").to_json())
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with redirect_stdout(io.StringIO()):
            assert cli.main(shlex.split(line)[1:]) == 0, line


def test_readme_option_table_matches_the_parser():
    # one row per group of subcommands: | `run`, `sample` | `--scenario`, ... |
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| command | options |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        commands, options = line.strip("|").split("|")
        for cmd in re.findall(r"`([a-z]+)`", commands):
            rows[cmd] = sorted(re.findall(r"`(--[a-z]+)`", options))
    assert rows == cli_options()
