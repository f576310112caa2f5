"""The numpy-free layer: exact combinatorics, and the types and readers the exact commands run on.

Binomials, multinomials, the Dicke split coefficients (exact square roots of rationals) and the
SAPPT thresholds are integer or rational.  Bipartition, Spectrum, Witness and the witness reader
serve table1, spectrum --mode analytic and witness --threshold; the methods that take or return
arrays import numpy.
"""

from __future__ import annotations

import json
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
    "Bipartition",
    "Spectrum",
    "maxmixed_pt_spectrum",
    "Witness",
    "builtin_witness",
    "detection_threshold",
    "witness_to_json",
    "witness_from_json",
    "load_witness_file",
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


# Relative, on the gap between sorted eigenvalues: a new level starts past DEGENERACY_REL |v_i|
# (plus len(v) eps max|v| of eigensolver rounding).
DEGENERACY_REL = 1e-6
GRID_DEFAULT = (721, 360)


def _json_object(text: str, who: str, keys: dict) -> dict:
    """The JSON object text holds.  ValueError, led by who, unless it parses as one, has every key
    of keys, and the value of each key is of its type in keys: int (a bool fails), list, or None for any."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, or nesting too deep
        raise ValueError(f"{who}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{who}: expected a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{who}: missing key(s) {', '.join(missing)}")
    for key, kind in keys.items():
        if kind and type(data[key]) is not kind:
            what = "integer" if kind is int else "array"
            raise ValueError(f"{who}: {key} must be a JSON {what}, got {json.dumps(data[key])}")
    return data


@dataclass(frozen=True)
class Bipartition:
    """A k | n-k split of n particles with local dimension d.

    Only 1 <= k <= floor(n/2) is accepted: k = 0 carries no partial
    transpose content and k > n/2 is redundant by symmetry.
    """

    n: int
    k: int
    d: int = 2

    def __post_init__(self):
        try:  # store Python ints, so numpy sizes print and key caches as plain ones do
            for name in ("n", "k", "d"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise ValueError(f"Bipartition: n, k and d must be integers, got {self}") from None
        if self.d < 2:
            raise ValueError(f"Bipartition: local dimension must be >= 2, got {self.d}")
        if self.n < 2:
            raise ValueError(f"Bipartition: need at least 2 particles, got n={self.n}")
        if not 1 <= self.k <= self.n // 2:
            raise ValueError(f"Bipartition: need 1 <= k <= floor(n/2) = {self.n // 2}, got k={self.k}")

    @property
    def dim_a(self) -> int:
        return symmetric_dimension(self.k, self.d)

    @property
    def dim_b(self) -> int:
        return symmetric_dimension(self.n - self.k, self.d)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True)
class Spectrum:
    """Multiset of (eigenvalue, multiplicity) pairs, sorted ascending.

    Values are exact Fractions on the analytic route and floats on the
    numeric route; multiplicities always sum to the operator dimension.
    """

    entries: tuple

    @classmethod
    def from_eigenvalues(cls, values) -> "Spectrum":
        """Group a sorted array of numeric eigenvalues into degenerate levels.

        A new level starts where the gap to the previous value exceeds
        DEGENERACY_REL |v_i| + len(v) eps max|v|: a relative separation, plus
        the rounding a symmetric eigensolver leaves on the whole spectrum.
        The reported value is the group mean.  A non-finite value is refused.
        """
        import numpy as np
        vals = np.sort(np.asarray(values, dtype=float))
        bad = vals[~np.isfinite(vals)]
        if bad.size:
            raise ValueError(f"Spectrum.from_eigenvalues: non-finite eigenvalue {bad[0]}")
        noise = len(vals) * np.finfo(float).eps * np.max(np.abs(vals), initial=0.0)
        new_level = np.diff(vals) > DEGENERACY_REL * np.abs(vals[1:]) + noise
        groups = np.split(vals, np.flatnonzero(new_level) + 1) if vals.size else []
        return cls(tuple((float(group.mean()), len(group)) for group in groups))

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.entries)

    def expanded(self):
        """All eigenvalues as a float numpy array, ascending, repeated by multiplicity."""
        import numpy as np
        return np.array([float(v) for v, m in self.entries for _ in range(m)])


def maxmixed_pt_spectrum(bip: Bipartition) -> Spectrum:
    """Exact spectrum of the transposed uniform state (qubits only).

    Eigenvalue C(n+1, j) / [(n+1) C(n, k)] with multiplicity n+1-2j for
    j = 0..k; the weighted sum telescopes to trace 1.
    """
    if bip.d != 2:
        raise ValueError("maxmixed_pt_spectrum: closed form is only available for qubits")
    n, k = bip.n, bip.k
    denom = (n + 1) * math.comb(n, k)
    entries, binom = [], 1
    for j in range(k + 1):  # binom = C(n+1, j), by the exact recurrence
        entries.append((Fraction(binom, denom), n + 1 - 2 * j))
        binom = binom * (n + 1 - j) // (j + 1)
    return Spectrum(tuple(entries))


# Published coefficients, parsed verbatim from their decimal form.  The
# diagonal runs over Dicke excitation 0..n and is palindromic; the corner
# couples |D^(0)><D^(n)| + |D^(n)><D^(0)|.
_BUILTIN_COEFFS = {
    "W5": (("0.0366656", "-0.134595", "1", "1", "-0.134595", "0.0366656"), "-9.31947"),
    "W7": (("0.00197514", "0.0643064", "-0.189017", "1", "1", "-0.189017", "0.0643064", "0.00197514"),
           "-31.2405"),
    "W9": (("0.00235791", "-0.013747", "0.0621661", "-0.1636915", "1",
            "1", "-0.1636915", "0.0621661", "-0.013747", "0.00235791"), "-114.305"),
}


@dataclass(frozen=True)
class Witness:
    """Real symmetric witness: palindromic diagonal plus anticorner coupling."""

    name: str
    diagonal: tuple
    corner: float

    def __post_init__(self):
        diag = tuple(float(x) for x in self.diagonal)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "corner", float(self.corner))
        if len(diag) < 2:
            raise ValueError("Witness: diagonal needs at least 2 entries")
        if not all(math.isfinite(x) for x in diag + (self.corner,)):
            raise ValueError("Witness: diagonal and corner must be finite")
        if diag != diag[::-1]:
            raise ValueError("Witness: diagonal must be palindromic")

    @property
    def dim(self) -> int:
        return len(self.diagonal)

    @property
    def n(self) -> int:
        return self.dim - 1

    def matrix(self):
        import numpy as np
        mat = np.diag(np.array(self.diagonal))
        mat[0, -1] = mat[-1, 0] = self.corner
        return mat


def builtin_witness(name: str) -> Witness:
    """One of the published witnesses W5, W7, W9."""
    if name not in _BUILTIN_COEFFS:
        raise ValueError(f"builtin_witness: unknown witness {name!r}, expected one of W5, W7, W9")
    return Witness(name, *_BUILTIN_COEFFS[name])


def detection_threshold(w: Witness, n: int) -> float:
    """Largest p for which the witness detects the GHZ mixture as entangled.

    Tr(rho(p) W) is affine in p, so the zero crossing has the closed form
    p* = g / (g - t) with g = <GHZ|W|GHZ> = (w_0 + w_n)/2 + corner and
    t = Tr(W)/(n+1).  For a valid witness (>= 0 on product states, so t >= 0) with
    g < 0, p* lies in (0, 1] and rho(p) is detected exactly for p < p*; if p* also
    exceeds the SAPPT threshold, [p_min, p*] is a certified family of entangled SAPPT states.
    """
    if w.dim != n + 1:
        raise ValueError(f"detection_threshold: witness dim {w.dim} does not match n={n}")
    t = sum(w.diagonal) / (n + 1)
    g = (w.diagonal[0] + w.diagonal[-1]) / 2 + w.corner
    denom = g - t
    if not math.isfinite(denom):  # inf or nan once t, g or g - t leaves double range
        raise ValueError(f"detection_threshold: witness {w.name}: <GHZ|W|GHZ> - Tr(W)/(n+1) leaves double range")
    # Relative, as p* does not change when W is scaled.
    if abs(denom) <= 1e-12 * max(abs(g), abs(t)):
        raise ValueError("detection_threshold: degenerate denominator, expectation constant in p")
    return g / denom


def witness_to_json(w: Witness) -> str:
    return json.dumps({"name": w.name, "dim": w.dim, "diagonal": list(w.diagonal), "corner": w.corner})


def witness_from_json(text: str) -> Witness:
    """Parse {"name", "dim", "diagonal", "corner"}: the diagonal an array of JSON numbers, the corner
    a JSON number, dim a JSON integer, name a printable string.  Malformed input raises ValueError."""
    data = _json_object(text, "witness_from_json", {"diagonal": list, "corner": None})
    diag, corner = data["diagonal"], data["corner"]
    bad = [x for x in diag + [corner] if type(x) not in (int, float)]  # bool, str and None fail
    if bad:
        raise ValueError(f"witness_from_json: coefficients must be JSON numbers, got {json.dumps(bad[0])}")
    dim = data.get("dim", len(diag))
    if type(dim) is not int:
        raise ValueError(f"witness_from_json: dim must be a JSON integer, got {json.dumps(dim)}")
    if dim != len(diag):
        raise ValueError(f"witness_from_json: declared dim {dim} != diagonal length {len(diag)}")
    name = data.get("name", "custom")
    if type(name) is not str:
        raise ValueError(f"witness_from_json: name must be a JSON string, got {json.dumps(name)}")
    if not name.isprintable():  # it leads one-line error messages
        raise ValueError(f"witness_from_json: name must be printable, got {json.dumps(name)}")
    try:
        return Witness(name, diag, corner)
    except OverflowError as exc:  # an integer past double range
        raise ValueError(f"witness_from_json: {exc}") from None


def load_witness_file(path) -> Witness:
    with open(path, encoding="utf-8") as fh:
        try:
            return witness_from_json(fh.read())
        except UnicodeDecodeError as exc:  # raised by read(), before the reader could name itself
            raise ValueError(f"witness_from_json: {exc}") from None
