"""tools/cli_digest.py: its command set and its per-command digest."""

import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

from symppt import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_command_set(tmp_path):
    argvs = load_tool().commands(tmp_path)
    assert len(argvs) == len({tuple(argv) for argv in argvs}) == 500
    assert sum(argv[:1] == ["scan"] for argv in argvs) == 108
    assert sum("--witness-file" in argv for argv in argvs) == 16


def test_digest_hashes_exit_code_and_both_streams():
    argvs = [["table1", "--nmax", "4"], ["qudit-check", "--d", "3", "--nmax", "1"]]
    expected = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        expected.append(hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest())
    src = Path(cli.__file__).resolve().parents[1]
    assert load_tool().digests(str(src), argvs) == expected
    assert expected[0] != expected[1]


def test_run_side_writes_no_bytecode(tmp_path, monkeypatch):
    # Even where the environment allows bytecode, the side's interpreter writes none into its tree.
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    src = Path(cli.__file__).resolve().parents[1]
    copy = tmp_path / "src"
    shutil.copytree(src / "symppt", copy / "symppt", ignore=shutil.ignore_patterns("__pycache__"))
    argvs = [["table1", "--nmax", "4"], ["spectrum", "--n", "5", "--mode", "both"]]
    assert load_tool().run_side(str(copy), argvs) == load_tool().digests(str(src), argvs)
    assert list(copy.rglob("__pycache__")) == []
