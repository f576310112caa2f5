"""tools/oneshot.py: its command set is the README's CLI examples, and its runs."""

import importlib.util
import py_compile
import shlex
import shutil
import sys
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


def test_children_compile_the_tree_from_source(capsys, tmp_path, monkeypatch):
    # A tree holding bytecode that no longer matches its source: an unchecked-hash pyc,
    # which the import system trusts without looking at the source.
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    tree = tmp_path / "stale"
    shutil.copytree(ROOT / "src" / "symppt", tree / "symppt", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "stale_init.py"
    source.write_text('print("stale bytecode")\n', encoding="utf-8")
    pyc = tree / "symppt" / "__pycache__" / f"__init__.{sys.implementation.cache_tag}.pyc"
    py_compile.compile(str(source), cfile=str(pyc), invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    tool = load_tool()
    argv = ["witness", "W5", "--threshold"]
    expected = (cli.main(argv), capsys.readouterr().out)
    assert tool.run_once(str(tree), argv)[1:] == (expected[0], "stale bytecode\n" + expected[1])
    copy = tool.without_bytecode(str(tree), str(tmp_path / "copy"))
    assert tool.run_once(copy, argv)[1:] == expected
    assert pyc.exists() and not (tmp_path / "copy" / "symppt" / "__pycache__").exists()


def test_summary():
    summary = load_tool().summary
    assert summary([5.0, 1.0, 4.0, 2.0, 3.0]) == (3.0, 2.0)
