"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one "criterion NN (...): PASS/FAIL" line (visible with
pytest -s, or by running this module directly).  Criteria with a stated
runtime budget fail if they exceed it.

Not reproduced here by design: the truncated-moment entanglement boundary
(the p_ent reference column) and the even-N separability statement; both
require an external separability solver and are shipped as documented
reference data only.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np

from symppt import (
    Bipartition,
    BipartiteOperator,
    builtin_witness,
    coherent_state,
    detection_threshold,
    dicke_split_coefficient,
    embed_bipartite,
    embed_pure,
    expectation_value,
    ghz_corner_eigencheck,
    ghz_witness_mixture,
    ladder_operators,
    maxmixed_pt,
    maxmixed_pt_spectrum,
    min_eigenvalue,
    minimize_over_products,
    mixture_min_eig_bound,
    mix_with_identity,
    partial_transpose_a,
    qudit_min_eig_check,
    sappt_threshold_qubits,
    schmidt_spectrum,
)

from oracles import random_pure, vandermonde_convolution_sides


def criterion(num, name, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL")
                raise
            print(f"criterion {num:02d} ({name}): PASS [{elapsed:.2f}s]")

        return wrapper

    return deco


@criterion(1, "exact SAPPT thresholds N=4..10", budget=1.0)
def test_criterion_01_thresholds():
    expected = {
        4: Fraction(15, 16),
        5: Fraction(30, 31),
        6: Fraction(70, 71),
        7: Fraction(140, 141),
        8: Fraction(315, 316),
        9: Fraction(630, 631),
        10: Fraction(1386, 1387),
    }
    for n, value in expected.items():
        assert sappt_threshold_qubits(n) == value, n


@criterion(2, "minimum PT eigenvalue closed form, N<=12", budget=30.0)
def test_criterion_02_min_eigenvalue():
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            got = min_eigenvalue(maxmixed_pt(Bipartition(n, k)))
            expected = 1 / ((n + 1) * math.comb(n, k))
            assert abs(got - expected) < 1e-10, (n, k)


@criterion(3, "full analytic PT spectrum, N<=12")
def test_criterion_03_spectrum():
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            bip = Bipartition(n, k)
            spec = maxmixed_pt_spectrum(bip)
            assert spec.entries == tuple(
                (Fraction(math.comb(n + 1, j), (n + 1) * math.comb(n, k)), n + 1 - 2 * j)
                for j in range(k + 1)
            )
            assert sum(v * m for v, m in spec.entries) == 1
            numeric = np.sort(np.linalg.eigvalsh(maxmixed_pt(bip).matrix.real))
            analytic = spec.expanded()
            assert numeric.shape == analytic.shape
            assert np.max(np.abs(numeric - analytic)) < 1e-10, (n, k)


@criterion(4, "ladder operator identities, N<=10")
def test_criterion_04_ladder_identities():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            bip = Bipartition(n, k)
            ops = ladder_operators(bip)
            pt = maxmixed_pt(bip).matrix.real
            assert np.linalg.norm(ops.weight @ ops.raise_op - ops.raise_op @ ops.weight - ops.raise_op) <= 1e-12
            assert np.linalg.norm(ops.weight @ ops.lower_op - ops.lower_op @ ops.weight + ops.lower_op) <= 1e-12
            for m in (ops.raise_op, ops.lower_op, ops.weight):
                assert np.linalg.norm(m @ pt - pt @ m) <= 1e-12, (n, k)


def _witness_criterion(name, n, tr_expected, tr_tol, min_expected, min_tol, theta_expected, thr_expected):
    w = builtin_witness(name)
    p_min = float(sappt_threshold_qubits(n))
    tr = expectation_value(ghz_witness_mixture(n, p_min), w)
    assert abs(tr - tr_expected) <= tr_tol, f"Tr={tr}"
    val, (theta, _) = minimize_over_products(w)
    assert abs(val - min_expected) <= min_tol, f"min={val}"
    assert abs(theta - theta_expected) <= 1e-3, f"theta={theta}"
    thr = detection_threshold(w, n)
    assert abs(thr - thr_expected) <= 1e-4, f"threshold={thr}"


@criterion(5, "witness W5", budget=5.0)
def test_criterion_05_w5():
    _witness_criterion("W5", 5, -0.0085, 5e-4, 0.00276, 1e-4, math.pi / 2, 0.96862)


@criterion(6, "witness W7")
def test_criterion_06_w7():
    _witness_criterion("W7", 7, -0.0038, 5e-4, 0.001975, 1e-4, 0.0, 0.99302)


@criterion(7, "witness W9")
def test_criterion_07_w9():
    _witness_criterion("W9", 9, -0.004, 1e-3, 0.0002234, 5e-5, 0.381, 0.99845)


@criterion(8, "GHZ corner vector saturation, N=4..10")
def test_criterion_08_ghz_saturation():
    for n in range(4, 11):
        p_min = float(sappt_threshold_qubits(n))
        for k in range(1, n // 2 + 1):
            for p in (0.9, p_min, 1.0):
                lam, residual = ghz_corner_eigencheck(n, k, p)
                expected = p / ((n + 1) * math.comb(n, k)) - (1 - p) / 2
                assert residual <= 1e-12, (n, k, p)
                assert abs(lam - expected) <= 1e-12, (n, k, p)
        # strictly below the threshold the balanced cut goes NPT
        for p in (0.0, 0.25, 0.5, 0.75, 0.9, p_min * (1 - 1e-9)):
            lam, _ = ghz_corner_eigencheck(n, n // 2, p)
            assert lam < 0, (n, p)


@criterion(9, "pure-state PT minimum vs Schmidt data, 200 states per cut")
def test_criterion_09_pure_pt_minimum():
    rng = np.random.default_rng(20250808)
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            bip = Bipartition(n, k)
            for _ in range(200):
                psi = random_pure(n, 2, rng)
                gammas = schmidt_spectrum(psi, bip)
                vec = embed_pure(psi, bip)
                op = BipartiteOperator(bip, np.outer(vec, vec.conj()))
                got = min_eigenvalue(partial_transpose_a(op))
                expected = -math.sqrt(gammas[0] * gammas[1])
                assert abs(got - expected) < 1e-10, (n, k)


@criterion(10, "qudit minimum conjecture, d=2..4, N<=15, dim<=5000", budget=120.0)
def test_criterion_10_qudit_conjecture():
    checked = 0
    for d in (2, 3, 4):
        for n in range(2, 16):
            for k in range(1, n // 2 + 1):
                if Bipartition(n, k, d).dim > 5000:
                    continue
                numeric, conjectured = qudit_min_eig_check(n, d, k)
                assert abs(numeric - float(conjectured)) < 1e-9, (d, n, k)
                checked += 1
    assert checked >= 100


@criterion(11, "property suites")
def test_criterion_11_property_suites():
    rng = np.random.default_rng(97)

    # split-coefficient normalization, exact
    for n in range(2, 21):
        for k in range(1, n // 2 + 1):
            for alpha in range(n + 1):
                total = sum(
                    dicke_split_coefficient(n, k, alpha, beta).squared for beta in range(n + 1)
                )
                assert total == 1

    # Vandermonde convolution, randomized
    for _ in range(300):
        alpha, beta, gamma = (int(x) for x in rng.integers(0, 31, size=3))
        lhs, rhs = vandermonde_convolution_sides(alpha, beta, gamma)
        assert lhs == rhs

    # partial transpose is an involution, exactly
    for n, k in [(5, 2), (8, 3)]:
        bip = Bipartition(n, k)
        mat = rng.standard_normal((bip.dim, bip.dim)) + 1j * rng.standard_normal((bip.dim, bip.dim))
        op = BipartiteOperator(bip, (mat + mat.conj().T) / 2)
        assert np.array_equal(partial_transpose_a(partial_transpose_a(op)).matrix, op.matrix)

    # Weyl-type mixture bound really lower-bounds the spectrum
    for _ in range(40):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n // 2 + 1))
        p = float(rng.random())
        bip = Bipartition(n, k)
        psi = random_pure(n, 2, rng)
        bound = mixture_min_eig_bound(psi, p, bip)
        rho = mix_with_identity(n, p, psi)
        true_min = min_eigenvalue(partial_transpose_a(embed_bipartite(rho, bip)))
        assert bound <= true_min + 1e-10

    # lowering-operator kernels per weight sector
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            bip = Bipartition(n, k)
            lower = ladder_operators(bip).lower_op
            sectors = {}
            for a in range(k + 1):
                for b in range(n - k + 1):
                    sectors.setdefault(b - a + k, []).append(a * bip.dim_b + b)
            for m, cols in sectors.items():
                kernel = len(cols) - np.linalg.matrix_rank(lower[:, cols], tol=1e-10)
                assert kernel == (1 if m <= k else 0)

    # coherent-state amplitudes follow the binomial law and normalize
    for _ in range(20):
        n = int(rng.integers(1, 13))
        theta, phi = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        psi = coherent_state(n, theta, phi)
        c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
        probs = np.array([math.comb(n, a) * c2 ** (n - a) * s2**a for a in range(n + 1)])
        assert np.allclose(np.abs(psi.amplitudes) ** 2, probs, atol=1e-12)
        assert abs(float(np.sum(np.abs(psi.amplitudes) ** 2)) - 1) < 1e-12


if __name__ == "__main__":
    import sys

    failures = 0
    for attr in sorted(globals()):
        if attr.startswith("test_criterion"):
            try:
                globals()[attr]()
            except BaseException as exc:
                failures += 1
                print(f"  -> {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
