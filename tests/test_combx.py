"""Exact combinatorics: binomials, split coefficients, thresholds."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from symppt import (
    SqrtRational,
    binomial,
    dicke_split_coefficient,
    multinomial,
    sappt_threshold_qubits,
    sappt_threshold_qudits,
    symmetric_dimension,
)
from symppt.combx import print_limit_exceeded

from oracles import pascal_triangle, vandermonde_convolution_sides


class TestBinomial:
    def test_small_values(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_raises(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_against_pascal_triangle(self):
        rows = pascal_triangle(60)
        for n in range(61):
            for r in range(n + 1):
                assert binomial(n, r) == rows[n][r]

    def test_big_value(self):
        # frozen from the Pascal oracle
        assert binomial(40, 20) == 137846528820

    def test_symmetry(self):
        for n in range(61):
            for r in range(n + 1):
                assert binomial(n, r) == binomial(n, n - r)


class TestMultinomial:
    def test_reduces_to_binomial(self):
        for n in range(10):
            for r in range(n + 1):
                assert multinomial(n, (n - r, r)) == binomial(n, r)

    def test_three_parts(self):
        assert multinomial(4, (2, 1, 1)) == 12

    def test_invalid_parts_are_zero(self):
        assert multinomial(4, (5, -1)) == 0
        assert multinomial(4, (1, 1)) == 0


class TestSqrtRational:
    def test_product_multiplies_radicands(self):
        a = SqrtRational(Fraction(3, 10))
        b = SqrtRational(Fraction(5, 3))
        assert (a * b).radicand == Fraction(1, 2)

    def test_float_value(self):
        assert float(SqrtRational(Fraction(9, 4))) == pytest.approx(1.5, abs=1e-15)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            SqrtRational(Fraction(-1, 2))


class TestSplitCoefficient:
    def test_ground_label_is_one(self):
        assert dicke_split_coefficient(5, 2, 0, 0).squared == 1

    def test_single_excitation_pair(self):
        # expansion of the one-excitation state of two qubits
        assert dicke_split_coefficient(2, 1, 1, 0).squared == Fraction(1, 2)
        assert dicke_split_coefficient(2, 1, 1, 1).squared == Fraction(1, 2)

    def test_five_qubit_example(self):
        assert dicke_split_coefficient(5, 2, 3, 1).squared == Fraction(3, 10)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            dicke_split_coefficient(3, 4, 1, 0)

    def test_normalization_exact(self):
        # sum over the B-side index of squared coefficients is exactly 1
        for n in range(2, 21):
            for k in range(1, n // 2 + 1):
                for alpha in range(n + 1):
                    total = sum(
                        dicke_split_coefficient(n, k, alpha, beta).squared
                        for beta in range(n + 1)
                    )
                    assert total == 1, (n, k, alpha)


class TestVandermondeConvolution:
    @pytest.mark.parametrize(
        "alpha,beta,gamma,expected",
        [(2, 1, 0, 1), (3, 2, 2, 10), (5, 4, 3, 84)],
    )
    def test_examples(self, alpha, beta, gamma, expected):
        assert vandermonde_convolution_sides(alpha, beta, gamma) == (expected, expected)

    def test_randomized_equality(self):
        rng = np.random.default_rng(20240817)
        for _ in range(400):
            alpha, beta, gamma = (int(x) for x in rng.integers(0, 31, size=3))
            lhs, rhs = vandermonde_convolution_sides(alpha, beta, gamma)
            assert lhs == rhs, (alpha, beta, gamma)

    def test_edge_cases(self):
        # beta = 0 and gamma > alpha probe the generalized-binomial branch
        for alpha in range(8):
            for gamma in range(8):
                lhs, rhs = vandermonde_convolution_sides(alpha, 0, gamma)
                assert lhs == rhs
                lhs, rhs = vandermonde_convolution_sides(1, 4, gamma)
                assert lhs == rhs

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_convolution_sides(-1, 2, 1)


class TestQubitThreshold:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (4, Fraction(15, 16)),
            (5, Fraction(30, 31)),
            (6, Fraction(70, 71)),
            (7, Fraction(140, 141)),
            (8, Fraction(315, 316)),
            (9, Fraction(630, 631)),
            (10, Fraction(1386, 1387)),
        ],
    )
    def test_reference_values(self, n, expected):
        assert sappt_threshold_qubits(n) == expected

    def test_strictly_increasing(self):
        values = [sappt_threshold_qubits(n) for n in range(2, 31)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sappt_threshold_qubits(1)


class TestQuditThreshold:
    def test_reduces_to_qubits(self):
        for n in range(2, 21):
            assert sappt_threshold_qudits(n, 2) == sappt_threshold_qubits(n)

    def test_qutrit_example(self):
        # D = C(6,2) = 15 and C(4,2) = 6
        assert sappt_threshold_qudits(4, 3) == Fraction(45, 46)

    def test_two_qutrits(self):
        assert sappt_threshold_qudits(2, 3) == Fraction(6, 7)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sappt_threshold_qudits(1, 3)
        with pytest.raises(ValueError):
            sappt_threshold_qudits(4, 1)


def test_symmetric_dimension():
    assert symmetric_dimension(5, 2) == 6
    assert symmetric_dimension(4, 3) == 15
    assert symmetric_dimension(3, 4) == 20


@pytest.mark.parametrize("call, error, message", [
    (lambda: multinomial(-1, []), ValueError, "multinomial: n must be nonnegative, got -1"),
    (lambda: dicke_split_coefficient(4, 1, 5, 0), ValueError,
     "dicke_split_coefficient: need 0 <= alpha <= n, got alpha=5"),
    (lambda: dicke_split_coefficient(4, 1, -1, 0), ValueError,
     "dicke_split_coefficient: need 0 <= alpha <= n, got alpha=-1"),
], ids=["multinomial-negative-n", "split-alpha-above-n", "split-alpha-negative"])
def test_domain_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# The cuts either side of the largest printable (n+1) C(n, n/2) at limit 640, C(2131, 1065) and
# C(2132, 1066) with 640 and 641 digits, and C(2560, 1280) with 769.
PRINT_LIMIT_PAIRS = [
    [(2121, 1), (2120, 1060)], [(2122, 1), (2121, 1060)], [(2131, 1065)], [(2132, 1066)], [(2560, 1280)],
]


@pytest.mark.parametrize("pairs", PRINT_LIMIT_PAIRS, ids=lambda pairs: "+".join(f"C{t},{r}" for t, r in pairs))
def test_print_limit_exceeded_agrees_with_the_digit_count(pairs):
    digits = len(str(math.prod(math.comb(t, r) for t, r in pairs)))  # under the default limit, 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert print_limit_exceeded(*pairs) == (640 if digits > 640 else 0)
    finally:
        sys.set_int_max_str_digits(saved)
