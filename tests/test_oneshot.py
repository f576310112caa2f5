"""tools/oneshot.py: its command set is the README's CLI examples, and its runs."""

import importlib.util
import shlex
from pathlib import Path

from symppt import cli

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("oneshot", ROOT / "tools" / "oneshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_commands() -> list:
    """The argvs of the `symppt ...` lines in the README's CLI section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("symppt ")]


def test_command_set():
    commands = load_tool().COMMANDS
    assert {cls: len(argvs) for cls, argvs in commands.items()} == {
        "exact": 3, "spectrum numeric": 1, "scan": 1, "qudit-check": 1, "witness --validate": 2,
    }
    argvs = [argv for group in commands.values() for argv in group]
    assert sorted(argvs) == sorted(readme_commands())
    assert len({tuple(argv) for argv in argvs}) == 8


def test_run_once_is_a_fresh_cli_process(capsys):
    argv = ["witness", "W5", "--threshold"]
    seconds, code, out = load_tool().run_once(str(ROOT / "src"), argv)
    assert (code, out) == (cli.main(argv), capsys.readouterr().out)
    assert seconds > 0


def test_summary():
    summary = load_tool().summary
    assert summary([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 2.0)
