"""Symmetric states in the Dicke basis and their bipartite embedding.

States of n qubits (or qudits) restricted to the symmetric sector are
stored as length-D amplitude vectors or D x D density matrices, D being
the sector dimension.  The central operation is the isometric embedding
of the sector into the tensor product of the two symmetric sectors of a
k | n-k bipartition, driven by the split coefficients: exact in
``dicke_decomposition``, as floats in ``split_coefficients``.  The float
table is the hypergeometric form prod_i C(a_i + b_i, a_i) / C(n, k) over cached
label arrays, read from one binomial table per n: exact float64 integers while
C(n, n // 2) < 2**53, Python ints past it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combx import (Bipartition, SqrtRational, _json_object, dicke_split_coefficient, multinomial,
                    print_limit_exceeded, symmetric_dimension)

__all__ = [
    "PureSymmetricState",
    "SymmetricDensityMatrix",
    "BipartiteOperator",
    "dicke_labels",
    "dicke_decomposition",
    "ghz_state",
    "coherent_state",
    "mix_with_identity",
    "split_coefficients",
    "embedding_matrix",
    "embed_bipartite",
    "embed_pure",
    "state_to_json",
    "state_from_json",
]

NORM_TOL = 1e-12  # absolute, on |norm - 1| and |trace - 1|: the unit norm or trace fixes the scale
HERM_TOL = 1e-12  # absolute, on max |M - Mᴴ| per matrix, whatever the scale of M (ROADMAP item 19)
PSD_TOL = 1e-10  # absolute, on -(least eigenvalue) of a unit-trace density matrix


def _hermitian(mats: np.ndarray, who: str) -> np.ndarray:
    """mats, one matrix or a stack, if each is exactly Hermitian; else (M + Mᴴ)/2, built once and
    read-only, if each is Hermitian within HERM_TOL; else ValueError naming who.  nan and inf fail.
    The |M - Mᴴ| pass runs only for inexact input, in place for real, in a new array for complex."""
    with np.errstate(invalid="ignore"):  # inf - inf gives nan, which fails the test below
        diff = mats - mats.conj().swapaxes(-1, -2)
    if not diff.any():  # nan and inf leave diff nonzero
        return mats
    if not (np.abs(diff, out=None if np.iscomplexobj(diff) else diff).max(axis=(-2, -1)) <= HERM_TOL).all():
        raise ValueError(f"{who}: matrix is not Hermitian within {HERM_TOL}")
    return _frozen((mats + mats.conj().swapaxes(-1, -2)) / 2)


def _dimension(obj, sectors, space, shape) -> int:
    """Product of symmetric_dimension(n, d) over the (n, d) sectors.  ValueError, naming obj's
    class, the space and shape, if it has more digits than Python prints: no array is that long."""
    if limit := print_limit_exceeded(*[(n + d - 1, d - 1) for n, d in sectors]):
        raise ValueError(f"{type(obj).__name__}: dimension for {space} has more than {limit} digits, "
                         f"got shape {shape}")
    return math.prod(symmetric_dimension(n, d) for n, d in sectors)


def _frozen(mat: np.ndarray) -> np.ndarray:
    """mat, marked read-only: how the library hands a container an array it has just built, that
    owns its memory and that nothing else references, so that the container keeps it uncopied."""
    mat.flags.writeable = False
    return mat


def _owned(raw, dtype) -> np.ndarray:
    """raw as it is if it is a read-only dtype ndarray that owns its memory, else one read-only
    converted copy; the caller's array stays writeable.  Every view is copied, as no flag tells
    whether a writeable view of its base is alive.  What a constructor checks then holds for the
    container's life, unless the caller keeps a writeable view of what it hands over or sets
    its flag back: nothing short of always copying stops that."""
    if type(raw) is np.ndarray and raw.dtype == dtype and raw.base is None and not raw.flags.writeable:
        return raw
    return _frozen(np.array(raw, dtype=dtype))


def _store_matrices(obj, raw, dtype, sectors, space) -> np.ndarray:
    """Set obj.matrix to _hermitian of raw as an _owned dtype array, one (dim, dim) matrix or a
    (count, dim, dim) stack, dim = _dimension(obj, sectors, ...), and return that array as given.
    The messages name obj's class and space."""
    mat = _owned(raw, dtype)
    who, dim = type(obj).__name__, _dimension(obj, sectors, space, mat.shape)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (dim, dim):
        raise ValueError(f"{who}: expected {dim}x{dim} for {space}, got {mat.shape}")
    object.__setattr__(obj, "matrix", _hermitian(mat, who))
    return mat


@functools.lru_cache(maxsize=None)
def dicke_labels(n: int, d: int) -> tuple:
    """Canonical ordering of the symmetric-sector basis labels.

    For qubits the labels are the excitation counts 0..n.  For d >= 3 they
    are the occupation tuples (m_0, ..., m_{d-1}) summing to n, listed in
    decreasing lexicographic order, which reduces to the qubit order when
    d = 2.
    """
    if n < 0 or d < 1:
        raise ValueError(f"dicke_labels: invalid (n={n}, d={d})")
    return tuple(range(n + 1)) if d == 2 else tuple(map(tuple, _occupation_array(n, d).tolist()))


@functools.lru_cache(maxsize=None)
def _occupation_array(n: int, d: int) -> np.ndarray:
    """Read-only int64 array, one row per label of dicke_labels(n, d), for qubits (n - alpha, alpha):
    the gaps between d - 1 bars among n + d - 1 slots, bar sets in reverse lexicographic order."""
    bars = np.array(list(itertools.combinations(range(n + d - 1), d - 1)), dtype=np.int64)[::-1]
    occupations = np.diff(bars, axis=1, prepend=-1, append=n + d - 1) - 1
    occupations.flags.writeable = False
    return occupations


class _Container:
    """Base of the containers: copies and pickles rebuild through the constructor from the
    fields in order, so the copy is checked and read-only (numpy copies an array writeable)."""

    def __reduce__(self):
        return type(self), tuple(vars(self).values())


@dataclass(frozen=True)
class PureSymmetricState(_Container):
    """Normalized pure state in the symmetric sector, Dicke-basis amplitudes, read-only (see _owned)."""

    n: int
    d: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _owned(self.amplitudes, np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        dim = _dimension(self, [(self.n, self.d)], f"(n={self.n}, d={self.d})", amps.shape)
        if amps.shape != (dim,):
            raise ValueError(
                f"PureSymmetricState: expected {dim} amplitudes for (n={self.n}, d={self.d}), "
                f"got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # a nan norm fails too
            raise ValueError(f"PureSymmetricState: norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "SymmetricDensityMatrix":
        return SymmetricDensityMatrix(self.n, self.d, _frozen(np.outer(self.amplitudes, self.amplitudes.conj())))


@dataclass(frozen=True)
class SymmetricDensityMatrix(_Container):
    """Density matrix on the symmetric sector: Hermitian, unit trace, PSD.

    ``matrix`` is one (D, D) matrix or a (count, D, D) stack, each checked once, here; it is
    read-only and exactly Hermitian (see _store_matrices).
    """

    n: int
    d: int
    matrix: np.ndarray

    def __post_init__(self):
        given = _store_matrices(self, self.matrix, np.complex128, [(self.n, self.d)], f"(n={self.n}, d={self.d})")
        # The trace of the matrix as given: an imaginary diagonal counts against NORM_TOL.
        traces = np.trace(given, axis1=-2, axis2=-1)
        bad = traces[~(np.abs(traces - 1.0) <= NORM_TOL)]
        if bad.size:
            raise ValueError(f"SymmetricDensityMatrix: trace {bad[0]} deviates from 1 beyond {NORM_TOL}")
        if not (np.linalg.eigvalsh(self.matrix) >= -PSD_TOL).all():
            raise ValueError(f"SymmetricDensityMatrix: negative eigenvalue beyond {PSD_TOL}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class BipartiteOperator(_Container):
    """Hermitian operator on the product of the two symmetric sectors.

    Row index i = a * dim_b + b for A-side label index a and B-side label
    index b (row-major, A first).  The convention is fixed so that partial
    transposition and file dumps are reproducible bit for bit.  ``matrix`` is one
    (dim, dim) matrix or a (count, dim, dim) stack, each checked once, here; it is
    read-only and exactly Hermitian (see _store_matrices).  Real input (bool, int or
    float) is stored as float64, complex input as complex128.
    """

    bipartition: Bipartition
    matrix: np.ndarray

    def __post_init__(self):
        dtype = np.complex128 if np.iscomplexobj(self.matrix) else np.float64
        bip = self.bipartition
        _store_matrices(self, self.matrix, dtype, [(bip.k, bip.d), (bip.n - bip.k, bip.d)], bip)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def dicke_decomposition(bip: Bipartition, label) -> list:
    """Expansion of a Dicke basis state over products of sector Dicke states.

    Returns a list of (a_label, b_label, coefficient) with exact
    SqrtRational coefficients.  For qubits the label is the excitation
    count alpha and the expansion runs over the B-side count beta with
    a_label = alpha - beta; for qudits the label is an occupation tuple and
    the coefficient is the multinomial ratio
    sqrt( M(k; a) * M(n-k; m-a) / M(n; m) ).
    """
    n, k, d = bip.n, bip.k, bip.d
    if d == 2:
        try:
            alpha = operator.index(label)
        except TypeError:
            raise ValueError(f"dicke_decomposition: invalid qubit label {label!r} for n={n}")
        if not 0 <= alpha <= n:
            raise ValueError(f"dicke_decomposition: invalid qubit label {label!r} for n={n}")
        out = []
        for beta in range(max(0, alpha - k), min(alpha, n - k) + 1):
            out.append((alpha - beta, beta, dicke_split_coefficient(n, k, alpha, beta)))
        return out

    m = tuple(label)
    if len(m) != d or any(x < 0 for x in m) or sum(m) != n:
        raise ValueError(f"dicke_decomposition: invalid qudit label {label!r} for (n={n}, d={d})")
    denom = multinomial(n, m)
    out = []
    for a in dicke_labels(k, d):
        if any(ai > mi for ai, mi in zip(a, m)):
            continue
        b = tuple(mi - ai for ai, mi in zip(a, m))
        num = multinomial(k, a) * multinomial(n - k, b)
        out.append((a, b, SqrtRational(Fraction(num, denom))))
    return out


def ghz_state(n: int, sign: int = -1) -> PureSymmetricState:
    """GHZ state (|D^(0)> + sign |D^(n)>)/sqrt(2) of n qubits.

    The default sign is -1.  The two phases are connected by the symmetric
    product unitary diag(1, e^{i pi/n}) on each qubit, so they share every
    spectral and entanglement property; sign=+1 is the representative whose
    corner coherence couples to the built-in witnesses.
    """
    if n < 2:
        raise ValueError(f"ghz_state: need n >= 2, got {n}")
    if sign not in (-1, 1):
        raise ValueError(f"ghz_state: sign must be +1 or -1, got {sign}")
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[n] = sign / math.sqrt(2)
    return PureSymmetricState(n, 2, _frozen(amps))


def coherent_state(n: int, theta: float, phi: float) -> PureSymmetricState:
    """Spin-coherent product state (cos(theta/2)|0> + sin(theta/2)e^{i phi}|1>)^n.

    Dicke amplitude at excitation a is
    sqrt(C(n,a)) cos^{n-a}(theta/2) (sin(theta/2) e^{i phi})^a.
    """
    if n < 1:
        raise ValueError(f"coherent_state: need n >= 1, got {n}")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    phase = complex(math.cos(phi), math.sin(phi))
    amps = np.array(
        [math.sqrt(math.comb(n, a)) * c ** (n - a) * (s * phase) ** a for a in range(n + 1)],
        dtype=complex,
    )
    amps /= np.linalg.norm(amps)
    return PureSymmetricState(n, 2, _frozen(amps))


def mix_with_identity(n: int, p, psi: PureSymmetricState) -> SymmetricDensityMatrix:
    """Mixture p * (maximally mixed sector state) + (1-p) |psi><psi|.

    The spectrum has exactly two levels: 1 - (D-1)p/D once and p/D with
    multiplicity D-1, D being the sector dimension.  An array of p gives the
    stack of their mixtures.
    """
    if psi.n != n:
        raise ValueError(f"mix_with_identity: state has n={psi.n}, expected {n}")
    p = np.asarray(p)[..., None, None]
    bad = p[~((0 <= p) & (p <= 1))]
    if bad.size:
        raise ValueError(f"mix_with_identity: p must lie in [0, 1], got {bad[0]}")
    mat = (p / psi.dim) * np.eye(psi.dim, dtype=complex)
    mat += (1 - p) * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return SymmetricDensityMatrix(n, psi.d, _frozen(mat))


@functools.lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Read-only table of C(i, j) for 0 <= i, j <= n, 0 for j > i.  float64 if C(n, n // 2) < 2**53,
    so every entry and every product up to C(n, n // 2) is an exact integer; Python ints past it."""
    rows = [[math.comb(i, j) for j in range(n + 1)] for i in range(n + 1)]
    table = np.array(rows, dtype=float if math.comb(n, n // 2) < 2**53 else object)
    table.flags.writeable = False
    return table


def _label_keys(bip: Bipartition, m: int) -> np.ndarray:
    """Integer key per label of dicke_labels(m, d): its occupations as base-(n+1)
    digits.  Digits of a sum or difference of an A and a B label span n + 1
    values, so its key is unique.  Object dtype keeps keys exact past int64."""
    radix = bip.n + 1
    powers = [radix**j for j in range(bip.d)]
    dtype = object if radix**bip.d >= 2**63 else np.int64
    return _occupation_array(m, bip.d) @ np.array(powers, dtype=dtype)


def split_coefficients(bip: Bipartition) -> np.ndarray:
    """Float split coefficients c(a, b) = sqrt( M(k; a) M(n-k; b) / M(n; a+b) ).

    A dim_a x dim_b table over the A- and B-side labels.  The ratio is the hypergeometric
    prod_i C(a_i + b_i, a_i) / C(n, k) over _binomials(n), exact float64 integers below 2**53
    and Python ints past it, so it is one correctly rounded integer division, as float(Fraction)
    is: each entry is float() of the dicke_decomposition coefficient, bit for bit.
    """
    a = _occupation_array(bip.k, bip.d)[:, None, :]
    products = _binomials(bip.n)[a + _occupation_array(bip.n - bip.k, bip.d), a].prod(axis=-1)
    return np.sqrt((products / math.comb(bip.n, bip.k)).astype(float, copy=False))


def embedding_matrix(n: int, k: int, d: int = 2) -> np.ndarray:
    """Isometry V from the symmetric sector into the bipartite product space.

    The scatter of split_coefficients: row a * dim_b + b holds c(a, b) in
    the column of label a + b.  V^T V = identity since each label's
    coefficients are normalized and distinct labels own disjoint rows.
    """
    bip = Bipartition(n, k, d)
    sector = _label_keys(bip, bip.n)  # the column of a + b: a sorted lookup of its key
    sorter = np.argsort(sector)
    pairs = (_label_keys(bip, bip.k)[:, None] + _label_keys(bip, bip.n - bip.k)).ravel()
    v = np.zeros((bip.dim, sector.size))
    v[np.arange(bip.dim), sorter[sector.searchsorted(pairs, sorter=sorter)]] = split_coefficients(bip).ravel()
    return v


def embed_bipartite(rho: SymmetricDensityMatrix, bip: Bipartition) -> BipartiteOperator:
    """Embed a symmetric density matrix as an operator on the bipartite space.

    Returns V rho V^T, which preserves trace, Hermiticity, rank and
    positive semidefiniteness.
    """
    if rho.n != bip.n or rho.d != bip.d:
        raise ValueError(
            f"embed_bipartite: state (n={rho.n}, d={rho.d}) does not match {bip}"
        )
    v = embedding_matrix(bip.n, bip.k, bip.d)
    return BipartiteOperator(bip, _frozen(v @ rho.matrix @ v.T))


def embed_pure(psi: PureSymmetricState, bip: Bipartition) -> np.ndarray:
    """Amplitude vector of a pure symmetric state on the bipartite space."""
    if psi.n != bip.n or psi.d != bip.d:
        raise ValueError(f"embed_pure: state (n={psi.n}, d={psi.d}) does not match {bip}")
    return embedding_matrix(bip.n, bip.k, bip.d) @ psi.amplitudes


def state_to_json(psi: PureSymmetricState) -> str:
    """Serialize a pure state as {"n", "d", "amplitudes": [[re, im], ...]}."""
    return json.dumps(
        {
            "n": psi.n,
            "d": psi.d,
            "amplitudes": [[z.real, z.imag] for z in psi.amplitudes],
        }
    )


def state_from_json(text: str) -> PureSymmetricState:
    """Parse {"n", "d", "amplitudes"}: n and d JSON integers, each amplitude a [re, im] pair of
    JSON numbers.  Malformed input raises ValueError."""
    data = _json_object(text, "state_from_json", {"n": int, "d": int, "amplitudes": list})
    amps = data["amplitudes"]
    bad = [z for z in amps if not (type(z) is list and len(z) == 2 and {*map(type, z)} <= {int, float})]
    if bad:  # bool, str and None fail
        raise ValueError(f"state_from_json: amplitudes must be [re, im] pairs, got {json.dumps(bad[0])}")
    try:
        return PureSymmetricState(data["n"], data["d"], [complex(re, im) for re, im in amps])
    except OverflowError as exc:  # an integer past double range
        raise ValueError(f"state_from_json: {exc}") from None
