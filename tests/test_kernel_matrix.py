"""tools/kernel_matrix.py: its settings and its summary."""

from conftest import ROOT, load_script

TOOL = "tools/kernel_matrix.py"


def test_settings():
    tool = load_script(TOOL)
    runs = tool.settings()
    assert [variables for _, variables in runs[:5]] == [
        {"OPENBLAS_CORETYPE": core} for core in ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")
    ]
    label, variables = runs[5]
    disabled = variables["NPY_DISABLE_CPU_FEATURES"].split()
    assert label == "NPY_DISABLE_CPU_FEATURES=" + " ".join(disabled)
    assert disabled == tool.avx512_targets()
    assert all(t == "X86_V4" or t.startswith("AVX512") for t in disabled)
    assert all((ROOT / path).is_file() for path in tool.TESTS)


def test_summary():
    lines, status = load_script(TOOL).summary([
        ("OPENBLAS_CORETYPE=SkylakeX", 0, "111 passed in 9.1s"),
        ("OPENBLAS_CORETYPE=Haswell", 1, "4 failed, 107 passed in 9.3s"),
        ("OPENBLAS_CORETYPE=Prescott", -4, ""),
    ])
    assert lines == [
        "OPENBLAS_CORETYPE=SkylakeX: pass (111 passed in 9.1s)",
        "OPENBLAS_CORETYPE=Haswell: fail (4 failed, 107 passed in 9.3s)",
        "OPENBLAS_CORETYPE=Prescott: unsupported (killed by signal 4)",
    ]
    assert status == 1
    lines, status = load_script(TOOL).summary([("A", 0, "ok"), ("B", -11, "")])
    assert (lines, status) == (["A: pass (ok)", "B: unsupported (killed by signal 11)"], 0)
