"""Partial transposition and the spectrum of the transposed uniform state.

The uniform (maximally mixed) symmetric state becomes nontrivial under
partial transposition of the k-particle side.  For qubits its full
eigendecomposition is known in closed form: eigenvalues
C(n+1, j) / [(n+1) C(n, k)] with multiplicity n+1-2j for j = 0..k, with
eigenvectors generated by a ladder-operator construction.  This module
implements that construction and the numeric assembly that cross-checks
it: the weight blocks, built from the float split coefficients, with the
dense matrix as their scatter.  It also provides Schmidt data of pure
states and the qudit minimum-eigenvalue check.
The blocks come as one stack per block size, built one size at a time after
two stable sorts of the pairs, by weight and then by block size, so that each
size's blocks are one contiguous run; the qudit check runs one eigvalsh per
stack.  All stacks hold at most dim * (largest block) floats, 2.8 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import combx
from .combx import Bipartition, symmetric_dimension
from .symstate import (
    BipartiteOperator,
    PureSymmetricState,
    _frozen,
    _label_keys,
    _sector_embedding,
    dicke_decomposition,  # unused here; perfbench/tracing.py wraps ptrans.dicke_decomposition
    dicke_labels,  # unused here; perfbench/tracing.py wraps ptrans.dicke_labels
    embed_bipartite,
    ghz_state,
    mix_with_identity,
    split_coefficients,
)

__all__ = [
    "LadderOperators",
    "partial_transpose_a",
    "min_eigenvalue",
    "maxmixed_pt",
    "maxmixed_pt_blocks",
    "ladder_operators",
    "maxmixed_pt_eigenbasis",
    "schmidt_spectrum",
    "mixture_min_eig_bound",
    "ghz_corner_eigencheck",
    "qudit_min_eig_check",
]

# Unused here; perfbench/tracing.py install patches ptrans.Spectrum.from_eigenvalues.
Spectrum = combx.Spectrum
# On ||H v - lam v||: relative to max(1, max |lam|) of the matrix or block, in min_eigenvalue and
# qudit_min_eig_check (whose blocks are pieces of a trace-1 operator, so there it is 1e-10).
RESIDUAL_TOL = 1e-10
DIM_CAP = 5000


@dataclass(frozen=True)
class LadderOperators:
    """Raising/lowering/weight operators on the bipartite space.

    Built from the sector analogues of the angular momentum operators on
    each factor: raise_op = lower(A) - raise(B) acting on the product, and
    weight = weight(A) - weight(B).  They satisfy [weight, raise_op] =
    +raise_op, [weight, lower_op] = -lower_op, and both commute with the
    partially transposed uniform state.
    """

    bipartition: Bipartition
    raise_op: np.ndarray
    lower_op: np.ndarray
    weight: np.ndarray


def partial_transpose_a(op: BipartiteOperator) -> BipartiteOperator:
    """Transpose the A-side indices: ((a,b),(a',b')) -> ((a',b),(a,b')).

    An involution that preserves trace and Hermiticity; a stack is transposed matrix by matrix.
    The entries go through a reshaped view of a new array, which the new operator keeps as it is.
    """
    da, db = op.bipartition.dim_a, op.bipartition.dim_b
    split_shape = (*op.matrix.shape[:-2], da, db, da, db)
    mat = np.empty_like(op.matrix, order="C")  # C order: the reshape below is a view, not a copy
    mat.reshape(split_shape)[...] = op.matrix.reshape(split_shape).swapaxes(-4, -2)
    return BipartiteOperator(op.bipartition, _frozen(mat))


def min_eigenvalue(op: BipartiteOperator):
    """Smallest eigenvalue of a Hermitian bipartite operator; for a stack, an array of one per matrix.

    eigh sees op.matrix as it is: read-only and exactly Hermitian from op's constructor, so that
    check, made once, still holds and is not repeated here.  Each returned eigenpair is verified
    to satisfy ||H v - lam v|| <= RESIDUAL_TOL * max(1, max |lam|), the largest |lam|
    of its own matrix; a nan residual fails it.  numpy's eigh diagonalizes a stack matrix
    by matrix with the same LAPACK call, so each value is bitwise that of the matrix alone.
    """
    mats = op.matrix
    w, v = np.linalg.eigh(mats)
    vec = v[..., :1]
    residual = np.linalg.norm(mats @ vec - w[..., None, :1] * vec, axis=(-2, -1))
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(w[..., [0, -1]]).max(axis=-1))
    over = ~(residual <= tol)
    if over.any():
        raise RuntimeError(f"min_eigenvalue: eigenpair residual {residual[over][0]:.3g} exceeds {tol[over][0]:.3g}")
    return w[:, 0] if mats.ndim == 3 else float(w[0])


def maxmixed_pt(bip: Bipartition) -> BipartiteOperator:
    """Partial transpose of the uniform symmetric state as a dense matrix.

    The scatter of the weight blocks into a zero matrix: entries between
    pairs of different weight are exactly zero.  The test suite compares it
    with the partial transpose of the embedded uniform state.
    """
    stacks = _weight_stacks(bip)
    mat = np.zeros((bip.dim, bip.dim))
    for members, stack in stacks:
        mat[members[:, :, None], members[:, None, :]] = stack
    return BipartiteOperator(bip, _frozen(mat))


def maxmixed_pt_blocks(bip: Bipartition):
    """Weight-resolved blocks of the transposed uniform state.

    Each sector label m decomposes as sum_{a+b=m} c(a, b) |a>|b>, and
    partial transposition of the A side gives the entry
    c(a_s, b_r) c(a_r, b_s) / D at row (a_r, b_r), column (a_s, b_s).  It is
    nonzero only when both pairs share the label difference a - b, so the
    matrix is block diagonal over that weight.  Returns a list of
    (pair_indices, block) with pair_indices ascending into the row-major
    bipartite basis; eigenvalues of the blocks are exactly those of the full
    matrix.  Blocks come ordered by size, then by weight, as the stacks of
    equal-sized blocks they are built in.  Bipartite dimensions above
    DIM_CAP are rejected before anything is built.
    """
    stacks = ((members.tolist(), stack) for members, stack in _weight_stacks(bip))
    return [(tuple(idx), block) for members, stack in stacks for idx, block in zip(members, stack)]


def _weight_stacks(bip: Bipartition):
    """maxmixed_pt_blocks as (members, stack) per block size, built one size at a
    time as they are consumed: members holds one block's pair indices per row, and
    stack the (count, size, size) blocks, bitwise symmetric since c c' == c' c.
    The pairs are sorted stably by weight key, then by the size of their block, so
    a size's members are one slice of that order, in weight order, each row ascending."""
    if bip.dim > DIM_CAP:
        raise ValueError(f"maxmixed_pt_blocks: bipartite dimension {bip.dim} exceeds cap {DIM_CAP}")
    coeffs = split_coefficients(bip).ravel()
    keys = (_label_keys(bip, bip.k)[:, None] - _label_keys(bip, bip.n - bip.k)).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    edges = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [bip.dim]))
    sizes = np.diff(edges)
    order = order[np.argsort(np.repeat(sizes, sizes), kind="stable")]
    counts = np.bincount(sizes)
    size_list = np.flatnonzero(counts)
    ends = np.cumsum(counts[size_list] * size_list).tolist()
    dim_b, dim_sector = bip.dim_b, symmetric_dimension(bip.n, bip.d)

    def stack(size, offset, end):
        members = order[offset:end].reshape(-1, size)
        ib = members % dim_b
        crossed = coeffs[(members - ib)[:, None, :] + ib[:, :, None]]  # c(a_s, b_r) at [r, s]
        blocks = crossed * crossed.swapaxes(-1, -2)
        blocks /= dim_sector
        return members, blocks

    return map(stack, size_list.tolist(), [0] + ends[:-1], ends)


def _factor_ladders(n: int):
    raise_m = np.zeros((n + 1, n + 1))
    for a in range(n):
        raise_m[a + 1, a] = math.sqrt((n - a) * (a + 1))
    return raise_m, np.diag([n / 2 - a for a in range(n + 1)])


def ladder_operators(bip: Bipartition) -> LadderOperators:
    """Ladder and weight operators for the qubit bipartite space."""
    if bip.d != 2:
        raise ValueError("ladder_operators: defined for qubits only")
    k, nb = bip.k, bip.n - bip.k
    raise_a, weight_a = _factor_ladders(k)
    raise_b, weight_b = _factor_ladders(nb)
    eye_a, eye_b = np.eye(k + 1), np.eye(nb + 1)
    raise_op = np.kron(raise_a.T, eye_b) - np.kron(eye_a, raise_b)
    weight = np.kron(weight_a, eye_b) - np.kron(eye_a, weight_b)
    # The lowering operator is the transpose, bitwise: transposing each kron term is exact.
    return LadderOperators(bip, raise_op, raise_op.T.copy(), weight)


def maxmixed_pt_eigenbasis(bip: Bipartition) -> list:
    """Full orthonormal eigenbasis of the transposed uniform state (qubits).

    Returns (j, m, vector) triples for j = 0..k and m = j..n-j.  The seed
    vector |j, j> has closed-form components
    sqrt(C(k-r, j-r) C(n-k-j+r, r)) / sqrt(C(n-j+1, j)) on
    |D_k^(k-r)> |D_{n-k}^(j-r)>; higher m follow by repeated raising with
    numeric renormalization.  The vector (j, m) carries eigenvalue
    C(n+1, j) / [(n+1) C(n, k)].
    """
    if bip.d != 2:
        raise ValueError("maxmixed_pt_eigenbasis: defined for qubits only")
    n, k = bip.n, bip.k
    dim_b = bip.dim_b
    raise_op = ladder_operators(bip).raise_op
    basis = []
    for j in range(k + 1):
        vec = np.zeros(bip.dim)
        for r in range(j + 1):
            coeff = math.sqrt(math.comb(k - r, j - r) * math.comb(n - k - j + r, r))
            vec[(k - r) * dim_b + (j - r)] = coeff
        vec /= math.sqrt(math.comb(n - j + 1, j))
        basis.append((j, j, vec))
        for m in range(j + 1, n - j + 1):
            vec = raise_op @ vec
            vec = vec / np.linalg.norm(vec)
            basis.append((j, m, vec))
    return basis


def schmidt_spectrum(psi: PureSymmetricState, bip: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients of a pure state, sorted descending.

    Singular values squared of the embedded amplitude vector reshaped to
    the dim_a x dim_b coefficient matrix; they sum to 1.
    """
    coeff = (_sector_embedding(psi, bip, "schmidt_spectrum") @ psi.amplitudes).reshape(bip.dim_a, bip.dim_b)
    sv = np.linalg.svd(coeff, compute_uv=False)
    return np.sort(sv**2)[::-1]


def mixture_min_eig_bound(psi: PureSymmetricState, p: float, bip: Bipartition) -> float:
    """Lower bound on the minimum PT eigenvalue of the p-mixture with psi.

    Weyl-type bound: p / [(n+1) C(n,k)] - (1-p) sqrt(G1 G2) with G1, G2
    the two largest squared Schmidt coefficients of psi.  Tight exactly
    when the mixture's extremal eigenvectors align.
    """
    if bip.d != 2:
        raise ValueError("mixture_min_eig_bound: defined for qubits only")
    if not 0 <= p <= 1:
        raise ValueError(f"mixture_min_eig_bound: p must lie in [0, 1], got {p}")
    gammas = schmidt_spectrum(psi, bip)
    return p / ((bip.n + 1) * math.comb(bip.n, bip.k)) - (1 - p) * math.sqrt(gammas[0] * gammas[1])


def ghz_corner_eigencheck(n: int, k: int, p: float) -> tuple[float, float]:
    """Eigenvalue and residual of the symmetric corner vector under the
    transposed GHZ mixture.

    The vector (|D_k^(0)>|D_{n-k}^(n-k)> + |D_k^(k)>|D_{n-k}^(0)>)/sqrt(2)
    is an exact eigenvector of the partial transpose of the p-mixture with
    the GHZ state, with eigenvalue p/[(n+1) C(n,k)] - (1-p)/2; this
    returns its Rayleigh quotient together with ||M v - lam v||.
    """
    bip = Bipartition(n, k)
    rho = mix_with_identity(n, p, ghz_state(n))
    pt = partial_transpose_a(embed_bipartite(rho, bip)).matrix
    vec = np.zeros(bip.dim)
    vec[0 * bip.dim_b + (n - k)] = 1 / math.sqrt(2)
    vec[k * bip.dim_b + 0] = 1 / math.sqrt(2)
    image = pt @ vec
    lam = float(np.real(vec @ image))
    residual = float(np.linalg.norm(image - lam * vec))
    return lam, residual


def qudit_min_eig_check(n: int, d: int, k: int) -> tuple[float, Fraction]:
    """Numeric minimum PT eigenvalue of the uniform qudit state, paired with
    the conjectured closed form 1 / [D C(n,k)], D = C(n+d-1, d-1).

    The numeric side diagonalizes the exact weight blocks (never the
    conjectured formula), so the two routes stay independent.  The minimum's
    eigenpair is verified as in min_eigenvalue, against max(1, max |lam|) of
    its block; a nan residual fails.  Bipartite dimensions above DIM_CAP are
    rejected.
    """
    bip = Bipartition(n, k, d)
    best = None
    for _, stack in _weight_stacks(bip):
        w = np.linalg.eigvalsh(stack)[:, 0]
        i = int(w.argmin())
        if best is None or w[i] < best:
            best, best_block = float(w[i]), stack[i]
    # eigh only feeds the residual check; reporting its value changes printed digits on some cuts.
    w, v = np.linalg.eigh(best_block)
    residual = np.linalg.norm(best_block @ v[:, 0] - w[0] * v[:, 0])
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(w[[0, -1]]).max())
    if not residual <= tol:
        raise RuntimeError(f"qudit_min_eig_check: eigenpair residual {residual:.3g} exceeds {tol:.3g}")
    conjectured = Fraction(1, symmetric_dimension(n, d) * math.comb(n, k))
    return best, conjectured

