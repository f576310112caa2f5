"""Every test starts with the CLI's per-process memo `cli._once` empty, so the
order in which tests run cannot decide whether a command computes or reuses a
result.

A test run leaves no bytecode in the checkout: this process writes none from
here on, nor do the interpreters the tests start.  pytest caches this file's
own assertion-rewritten code before any of its lines run, so that one file is
removed here.

load_script loads one of the repository's scripts, which live outside any
package; a test imports it from here as it imports oracles."""

import contextlib
import importlib.util
import os
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
_PYCACHE = Path(__file__).with_name("__pycache__")
for _pyc in _PYCACHE.glob("conftest.*-pytest-*.pyc"):
    _pyc.unlink()
with contextlib.suppress(OSError):
    _PYCACHE.rmdir()

from symppt import cli

ROOT = Path(__file__).resolve().parents[1]


def load_script(relative: str):
    """The module of the script at ROOT/relative, e.g. "tools/cli_digest.py", run afresh."""
    spec = importlib.util.spec_from_file_location(Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def clear_cli_memos():
    cli._once.cache_clear()
