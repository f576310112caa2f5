"""Exact combinatorics behind every closed-form quantity in the package.

All arithmetic here is integer or rational: binomials and multinomials,
the coefficients of the bipartite Dicke expansion (kept as exact square
roots of rationals), and the closed-form SAPPT threshold probabilities.
Floats appear only in print_limit_exceeded's digit bounds and when a caller converts.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "SqrtRational",
    "binomial",
    "multinomial",
    "symmetric_dimension",
    "dicke_split_coefficient",
    "sappt_threshold_qubits",
    "sappt_threshold_qudits",
]


def binomial(n: int, r: int) -> int:
    """Binomial coefficient C(n, r) with out-of-range arguments mapped to 0.

    The zero convention (r < 0 or r > n) lets combinatorial sums truncate
    themselves: dicke_split_coefficient is zero where a numerator binomial is.
    Requires n >= 0.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / (parts[0]! * ... * parts[-1]!).

    Returns 0 if any part is negative or the parts do not sum to n.
    """
    if n < 0:
        raise ValueError(f"multinomial: n must be nonnegative, got {n}")
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = 1
    rest = n
    for p in parts[:-1]:
        out *= math.comb(rest, p)
        rest -= p
    return out


def symmetric_dimension(n: int, d: int) -> int:
    """Dimension C(n+d-1, d-1) of the symmetric sector of n d-level systems."""
    if n < 0 or d < 1:
        raise ValueError(f"symmetric_dimension: invalid (n={n}, d={d})")
    return math.comb(n + d - 1, d - 1)


def print_limit_exceeded(*binomials) -> int:
    """sys.get_int_max_str_digits() if the product of C(t, r) over the (t, r) pairs has more digits
    than that limit, else 0; also 0 with no limit or unless 1 <= r <= t.  operator.index reads t and r.
    For r <= t/2, r log10(t/r) <= log10 C(t, r) <= r log10(e t/r): exact only near the limit."""
    limit = sys.get_int_max_str_digits()
    if not limit or not all(1 <= r <= t for t, r in binomials):
        return 0
    pairs = [(t, min(r, t - r)) for t, r in (map(operator.index, pair) for pair in binomials)]
    # log10(t/r) >= 0.3, so capping r at 4 limit keeps low past limit + 1 and r in double range
    low = sum(min(r, 4 * limit) * (math.log10(t) - math.log10(r)) for t, r in pairs if r)
    if low < limit + 1 and (low + sum(r for _, r in pairs) * math.log10(math.e) < limit - 1
                            or math.prod(math.comb(t, r) for t, r in pairs) < 10**limit):
        return 0
    return limit


@dataclass(frozen=True)
class SqrtRational:
    """Exact nonnegative square root of a rational, sqrt(radicand).

    Products stay exact (radicands multiply), so normalization sums of
    squared coefficients can be checked in rational arithmetic with no
    rounding at all.
    """

    radicand: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise ValueError(f"SqrtRational: negative radicand {self.radicand}")

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        return SqrtRational(self.radicand * other.radicand)

    def __float__(self) -> float:
        # float(Fraction) is correctly rounded, sqrt adds at most half an ulp
        return math.sqrt(float(self.radicand))

    @property
    def squared(self) -> Fraction:
        return self.radicand


def dicke_split_coefficient(n: int, k: int, alpha: int, beta: int) -> SqrtRational:
    """Coefficient of |D_k^(alpha-beta)>|D_{n-k}^(beta)> in the k|n-k split
    of the n-qubit Dicke state with alpha excitations.

    Equals sqrt( C(k, alpha-beta) * C(n-k, beta) / C(n, alpha) ); zero
    whenever either numerator binomial vanishes.
    """
    if k > n or k < 0:
        raise ValueError(f"dicke_split_coefficient: need 0 <= k <= n, got k={k}, n={n}")
    if not 0 <= alpha <= n:
        raise ValueError(f"dicke_split_coefficient: need 0 <= alpha <= n, got alpha={alpha}")
    num = binomial(k, alpha - beta) * binomial(n - k, beta)
    return SqrtRational(Fraction(num, math.comb(n, alpha)))


def sappt_threshold_qubits(n: int) -> Fraction:
    """Smallest mixing probability p for which the uniparametric spectrum
    (1 - n*p/(n+1), p/(n+1), ..., p/(n+1)) of n qubits is SAPPT.

    Exact value 1 / (1 + 2/[(n+1) C(n, floor(n/2))]), the qudit threshold at d = 2.
    """
    if n < 2:
        raise ValueError(f"sappt_threshold_qubits: need n >= 2, got {n}")
    return sappt_threshold_qudits(n, 2)


def sappt_threshold_qudits(n: int, d: int) -> Fraction:
    """Qudit generalization of the SAPPT threshold (conjectured for d > 2).

    Exact value 1 / (1 + 2/[D C(n, floor(n/2))]) with D = C(n+d-1, d-1).
    Reduces to the qubit formula at d = 2.
    """
    if n < 2 or d < 2:
        raise ValueError(f"sappt_threshold_qudits: need n >= 2 and d >= 2, got (n={n}, d={d})")
    scale = symmetric_dimension(n, d) * math.comb(n, n // 2)
    return Fraction(scale, scale + 2)
