"""tools/cli_digest.py: its command set and its per-command digest."""

import ast
import contextlib
import hashlib
import inspect
import io
import json
import shlex
import shutil
import sys
import threading
from pathlib import Path

from symppt import cli

from conftest import ROOT, load_script

TOOL = "tools/cli_digest.py"


def test_command_set(tmp_path):
    argvs = load_script(TOOL).commands(tmp_path)
    assert len(argvs) == len({tuple(argv) for argv in argvs}) == 524
    assert sum(argv[:1] == ["scan"] for argv in argvs) == 112
    assert sum("--witness-file" in argv for argv in argvs) == 18
    assert sum("--out" in argv for argv in argvs) == 2


def test_command_set_holds_the_readme_examples(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [shlex.split(line, comments=True)[1:] for line in readme.splitlines() if line.startswith("symppt ")]
    assert len(examples) == 8
    argvs = load_script(TOOL).commands(tmp_path)
    assert [argv for argv in examples if argv not in argvs] == []


def function_lines(path: str) -> set[int]:
    """The lines of path that hold code of a function body.  A def's first line (its decorator's,
    if any) holds only the entry instruction, which no line event reports, so it is left out."""
    lines, todo = set(), [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
    while todo:
        code = todo.pop()
        todo += [const for const in code.co_consts if inspect.iscode(const)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= {line for _, _, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                lines.discard(code.co_firstlineno)
    return lines


def test_commands_run_every_function_line_of_cli(tmp_path):
    # Every line of cli.py's functions runs in some command, except two that no argv reaches:
    # __getattr__'s body (a numeric name read from outside before any numeric command) and
    # _json's final raise (a cell of a type no command makes).  Module-level code, the
    # __main__ guard among it, is not counted: it runs on import, before the trace.
    tool, path, ran = load_script(TOOL), cli.__file__, set()

    def line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == path else None

    # scan's operator chunks run on pool threads, which take the tracer from threading.settrace.
    argvs, tracer, thread_tracer = tool.commands(tmp_path), sys.gettrace(), threading.gettrace()
    # Each side of the tool starts in a fresh interpreter, where these caches are empty.
    cli._numeric.cache_clear()
    cli.build_parser.cache_clear()
    threading.settrace(call)
    sys.settrace(call)
    try:
        tool.digests(str(Path(path).parents[1]), argvs)
    finally:
        sys.settrace(tracer)
        threading.settrace(thread_tracer)
    defs = {node.name: node for node in ast.parse(Path(path).read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}
    getattr_body = range(defs["__getattr__"].body[0].lineno, defs["__getattr__"].end_lineno + 1)
    unreached = {*getattr_body, defs["_json"].body[-1].lineno}
    lines = function_lines(path)
    assert sorted(lines - ran) == sorted(lines & unreached)


def test_digest_hashes_exit_code_and_both_streams():
    argvs = [["table1", "--nmax", "4"], ["qudit-check", "--d", "3", "--nmax", "1"]]
    expected = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        expected.append(hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest())
    src = Path(cli.__file__).resolve().parents[1]
    assert load_script(TOOL).digests(str(src), argvs) == expected
    assert expected[0] != expected[1]


def test_digest_of_an_out_command_that_writes_no_file(tmp_path):
    # table1 refuses --nmax 3 before it opens the --out path, and cannot open the empty path:
    # the file's place in the record holds None.
    argvs = [["table1", "--nmax", "3", "--out", str(tmp_path / "t.csv")], ["table1", "--nmax", "4", "--out", ""]]
    records = [[1, "", "symppt: error: table1: nmax must lie in [4, 14], got 3\n", None],
               [1, "", "symppt: error: [Errno 2] No such file or directory: ''\n", None]]
    src = Path(cli.__file__).resolve().parents[1]
    expected = [hashlib.sha256(json.dumps(record).encode()).hexdigest() for record in records]
    assert load_script(TOOL).digests(str(src), argvs) == expected


def test_run_side_writes_no_bytecode(tmp_path, monkeypatch):
    # Even where the environment allows bytecode, the side's interpreter writes none into its tree.
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    src = Path(cli.__file__).resolve().parents[1]
    copy = tmp_path / "src"
    shutil.copytree(src / "symppt", copy / "symppt", ignore=shutil.ignore_patterns("__pycache__"))
    argvs = [["table1", "--nmax", "4"], ["spectrum", "--n", "5", "--mode", "both"]]
    assert load_script(TOOL).run_side(str(copy), argvs) == load_script(TOOL).digests(str(src), argvs)
    assert list(copy.rglob("__pycache__")) == []
