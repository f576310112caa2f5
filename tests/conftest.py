"""Every test starts with the CLI's per-process memos empty, so the order in
which tests run cannot decide whether a command computes or reuses a result."""

import pytest

from symppt import cli


@pytest.fixture(autouse=True)
def clear_cli_memos():
    for memo in cli._MEMOS:
        memo.cache_clear()
