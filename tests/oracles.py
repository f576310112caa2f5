"""Independent brute-force oracles shared by the test modules.

Everything here deliberately avoids the closed forms under test: binomials
come from the Pascal recurrence, bipartite Dicke coefficients from literal
enumeration of computational-basis strings, the partial transpose from
an explicit four-index shuffle, the alternate Vandermonde convolution
from generalized binomials, and the qudit labels from a recursion on the
first occupation.  The golden-section refinement is the sequential
one, a call of its evaluator per step.  The CLI's tables are checked against the
renderer it had before its direct emitter: typed cells converted to JSON
values, then ``json.dumps(indent=2)``.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import numpy as np


def pascal_triangle(nmax: int) -> list:
    """Rows 0..nmax of Pascal's triangle via the additive recurrence."""
    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])
    return rows


def _generalized_binomial(x: int, r: int) -> int:
    """C(x, r) for possibly negative integer x, via the falling factorial.

    Needed only by the Vandermonde convolution, whose right-hand side can
    probe negative upper arguments when the summation index overshoots.
    """
    if r < 0:
        return 0
    num = 1
    for i in range(r):
        num *= x - i
    return num // math.factorial(r)


def vandermonde_convolution_sides(alpha: int, beta: int, gamma: int) -> tuple[int, int]:
    """Both sides of the alternate Vandermonde convolution.

    Returns (C(alpha+beta, gamma), sum_{j=0}^{gamma} C(alpha-j, gamma-j) *
    C(beta+j-1, j)).  The two entries are equal for all nonnegative
    arguments; the summand uses generalized binomials because alpha-j and
    beta+j-1 may dip below zero.
    """
    if alpha < 0 or beta < 0 or gamma < 0:
        raise ValueError("vandermonde_convolution_sides: arguments must be nonnegative")
    lhs = math.comb(alpha + beta, gamma)
    rhs = sum(
        _generalized_binomial(alpha - j, gamma - j) * _generalized_binomial(beta + j - 1, j)
        for j in range(gamma + 1)
    )
    return lhs, rhs


def multiset_strings(occupation):
    """All distinct strings (symbol tuples) with the given occupation counts."""
    total = sum(occupation)
    out = []

    def grow(prefix, remaining):
        if len(prefix) == total:
            out.append(tuple(prefix))
            return
        for sym, cnt in enumerate(remaining):
            if cnt:
                remaining[sym] -= 1
                prefix.append(sym)
                grow(prefix, remaining)
                prefix.pop()
                remaining[sym] += 1

    grow([], list(occupation))
    return out


def occupation_of(string, d: int):
    occ = [0] * d
    for sym in string:
        occ[sym] += 1
    return tuple(occ)


def brute_split_overlaps(n: int, d: int, k: int, occupation) -> dict:
    """Squared overlaps of a symmetrized basis state with sector products.

    Enumerates every computational-basis string of the given occupation,
    splits it after the first k sites, and counts how often each
    (A-occupation, B-occupation) pair appears.  The squared overlap with
    the corresponding product of symmetrized sector states is
    count^2 / (S_total * S_A * S_B), each S being the number of strings in
    the respective symmetrization, returned as an exact Fraction.
    """
    strings = multiset_strings(occupation)
    counts = {}
    for s in strings:
        key = (occupation_of(s[:k], d), occupation_of(s[k:], d))
        counts[key] = counts.get(key, 0) + 1
    total = len(strings)
    out = {}
    for (occ_a, occ_b), cnt in counts.items():
        size_a = len(multiset_strings(occ_a))
        size_b = len(multiset_strings(occ_b))
        out[(occ_a, occ_b)] = Fraction(cnt * cnt, total * size_a * size_b)
    return out


def compositions(total: int, parts: int):
    """Occupation tuples of `parts` levels summing to total, in decreasing lexicographic order:
    the largest first occupation first, then the rest recursively."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def ladder_lower_reference(bip) -> np.ndarray:
    """The qubit lowering operator raise(A) x 1 - 1 x lower(B), from its own kron terms; the
    one-particle raise matrix has sqrt((m - a)(a + 1)) at row a + 1, column a."""
    def raise_matrix(m):
        return np.diag([math.sqrt((m - a) * (a + 1)) for a in range(m)], -1)

    k, nb = bip.k, bip.n - bip.k
    return np.kron(raise_matrix(k), np.eye(nb + 1)) - np.kron(np.eye(k + 1), raise_matrix(nb).T)


def qubit_occupation(n: int, alpha: int):
    return (n - alpha, alpha)


def pt_shuffle(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Partial transpose of the A factor by explicit index permutation."""
    out = np.zeros_like(mat)
    for a in range(dim_a):
        for b in range(dim_b):
            for ap in range(dim_a):
                for bp in range(dim_b):
                    out[a * dim_b + b, ap * dim_b + bp] = mat[ap * dim_b + b, a * dim_b + bp]
    return out


def random_pure(n: int, d: int, rng: np.random.Generator):
    from symppt import PureSymmetricState, symmetric_dimension

    dim = symmetric_dimension(n, d)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureSymmetricState(n, d, amps / np.linalg.norm(amps))


def random_density(n: int, d: int, rng: np.random.Generator, rank: int = 3):
    from symppt import SymmetricDensityMatrix, symmetric_dimension

    dim = symmetric_dimension(n, d)
    weights = rng.random(min(rank, dim))
    weights /= weights.sum()
    mat = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
        mat += w * np.outer(amps, amps.conj())
    return SymmetricDensityMatrix(n, d, mat)


_eigh = np.linalg.eigh


def tilted_eigh(a, *args, **kwargs):
    """A faulty np.linalg.eigh: the lowest eigenvector is tilted by 1e-6
    towards the highest, so any eigenpair residual check on a matrix wider
    than 1 must fire."""
    w, v = _eigh(a, *args, **kwargs)
    v = v.copy()
    v[..., 0] += 1e-6 * v[..., -1]
    return w, v


def refused_in_place(container, write, rebuild) -> str:
    """A container's matrix is read-only: write(container.matrix) raises numpy's ValueError (an
    item assignment or an in-place ufunc) and changes no entry.  Returns the message of the
    ValueError with which rebuild, the container's constructor, refuses a copy that write did
    change."""
    before = container.matrix.tobytes()
    try:
        write(container.matrix)
    except ValueError as exc:
        assert str(exc) in ("assignment destination is read-only", "output array is read-only")
    else:
        raise AssertionError("a write into a container's matrix succeeded")
    assert container.matrix.tobytes() == before
    mat = container.matrix.copy()
    write(mat)
    assert mat.tobytes() != before
    try:
        rebuild(mat)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the constructor accepted the changed matrix")


def scan_rows_per_p(w, n: int, k: int, p_from: float, p_to: float, steps: int) -> list:
    """The rows of ``symppt scan``, one p at a time through the single-object API.

    Each p builds its own validated density matrix and bipartite operator and
    its own eigensolve: the per-step route the chunked scan must reproduce
    bit for bit.
    """
    from symppt import (
        Bipartition,
        BipartiteOperator,
        embed_bipartite,
        expectation_value,
        ghz_witness_mixture,
        maxmixed_pt,
        min_eigenvalue,
        partial_transpose_a,
        sappt_threshold_qubits,
    )

    bip = Bipartition(n, k)
    p_min = float(sappt_threshold_qubits(n))
    pt_uniform = maxmixed_pt(bip).matrix
    pt_ghz = partial_transpose_a(embed_bipartite(ghz_witness_mixture(n, 0.0), bip)).matrix
    rows = []
    for p in np.linspace(p_from, p_to, steps):
        p = float(p)
        tr = expectation_value(ghz_witness_mixture(n, p), w)
        lam = min_eigenvalue(BipartiteOperator(bip, p * pt_uniform + (1 - p) * pt_ghz))
        rows.append((p, tr, lam, p >= p_min - 1e-12, tr < 0))
    return rows


def weight_blocks_per_pair(bip) -> list:
    """The weight blocks of the transposed uniform state, grouped pair by pair.

    A dict keyed by the label difference a - b collects the pair indices in
    ascending order; each block is then built on its own from the library's
    split coefficients.  Returns (pair_indices, block) in first-appearance
    order: the per-block route the size-stacked assembly must reproduce bit
    for bit.
    """
    from symppt import dicke_labels, symmetric_dimension
    from symppt.symstate import split_coefficients

    coeffs = split_coefficients(bip)
    labels_a = np.array(dicke_labels(bip.k, bip.d))
    labels_b = np.array(dicke_labels(bip.n - bip.k, bip.d))
    weights = (labels_a[:, None] - labels_b[None, :]).reshape(bip.dim, -1)
    groups = {}
    for i, weight in enumerate(map(tuple, weights.tolist())):
        groups.setdefault(weight, []).append(i)
    dim_sector = symmetric_dimension(bip.n, bip.d)
    blocks = []
    for members in groups.values():
        ia, ib = np.divmod(np.array(members), bip.dim_b)
        block = coeffs[ia[None, :], ib[:, None]] * coeffs[ia[:, None], ib[None, :]] / dim_sector
        blocks.append((tuple(members), block))
    return blocks


def min_eig_per_block(bip) -> float:
    """Smallest eigenvalue over the weight blocks, one eigvalsh per block."""
    best = None
    for _, block in weight_blocks_per_pair(bip):
        w = np.linalg.eigvalsh((block + block.T) / 2)
        if best is None or w[0] < best:
            best = float(w[0])
    return best


def scatter_blocks(bip) -> np.ndarray:
    """The dense transposed uniform state as the scatter of the per-pair blocks."""
    mat = np.zeros((bip.dim, bip.dim))
    for indices, block in weight_blocks_per_pair(bip):
        mat[np.ix_(indices, indices)] = block
    return mat


def product_profile(w, thetas: np.ndarray):
    """Diagonal term f(theta) and corner envelope g(theta) >= 0 of the witness
    on coherent product states, evaluated term by term."""
    n = w.n
    c2 = np.cos(thetas / 2) ** 2
    s2 = np.sin(thetas / 2) ** 2
    f = np.zeros_like(thetas, dtype=float)
    for a, wa in enumerate(w.diagonal):
        f += wa * math.comb(n, a) * c2 ** (n - a) * s2**a
    g = (c2 * s2) ** (n / 2)
    return f, g


def product_value(w, theta: float, phi: float) -> float:
    """The witness on the product state with Bloch angles (theta, phi)."""
    f, g = product_profile(w, np.array([float(theta)]))
    return float(f[0] + 2 * w.corner * g[0] * math.cos(w.n * phi))


def dense_grid_min(w, grid) -> float:
    """Minimum of the witness over the full W x H (theta, phi) array."""
    thetas = np.linspace(0.0, math.pi, grid[0])
    phis = np.linspace(0.0, 2 * math.pi, grid[1], endpoint=False)
    f, g = product_profile(w, thetas)
    return float((f[:, None] + 2 * w.corner * g[:, None] * np.cos(w.n * phis)[None, :]).min())


def _golden_min(f, lo: float, hi: float, tol: float):
    """Golden-section minimum of a unimodal-enough f on [lo, hi]."""
    ratio = (math.sqrt(5) - 1) / 2
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    x = (lo + hi) / 2
    return x, f(x)


def minimize_over_products_dense(w, grid, tol: float):
    """minimize_over_products with the 2-D cross-check on the full W x H array:
    the same coarse scan, golden-section refinement, edge points and
    agreement error at tolerance tol times the witness's scale, evaluated
    through product_profile."""
    from symppt.witness import REFINE_TOL

    phi_star = 0.0 if w.corner <= 0 else math.pi / w.n
    half = np.linspace(0.0, math.pi / 2, max(grid[0] // 2 + 1, 3))
    f, g = product_profile(w, half)
    i = int(np.argmin(f + 2 * w.corner * g * math.cos(w.n * phi_star)))
    lo, hi = half[max(i - 1, 0)], half[min(i + 1, len(half) - 1)]
    theta_best, val_best = _golden_min(lambda t: product_value(w, t, phi_star), lo, hi, REFINE_TOL)
    for theta_edge in (0.0, math.pi / 2):
        val_edge = product_value(w, theta_edge, phi_star)
        if val_edge < val_best:
            theta_best, val_best = theta_edge, val_edge
    grid_min = dense_grid_min(w, grid)
    # tol scales with s = max(max |w_a|, 2 |corner| / 2^n), floored at the least normal double:
    # within a factor of 2 of a bound on |<W>| over product states, |<W>| <= max |w_a| + 2 |corner| / 2^n
    scale = max(max(abs(x) for x in w.diagonal), math.ldexp(2 * abs(w.corner), -w.n), sys.float_info.min)
    if abs(grid_min - val_best) > tol * scale:
        raise RuntimeError(
            f"minimize_over_products: 2-D grid minimum {grid_min} and refined minimum "
            f"{val_best} disagree beyond {tol * scale:.3g}"
        )
    return float(val_best), (float(theta_best), phi_star)


def spectrum_entries_by_index(values) -> tuple:
    """Spectrum.from_eigenvalues grouped by an index loop over the sorted values:
    the route the np.split grouping must reproduce bit for bit."""
    from symppt.combx import DEGENERACY_REL

    vals = np.sort(np.asarray(values, dtype=float))
    noise = len(vals) * np.finfo(float).eps * np.max(np.abs(vals), initial=0.0)
    new_level = np.diff(vals) > DEGENERACY_REL * np.abs(vals[1:]) + noise
    entries = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or new_level[i - 1]:
            group = vals[start:i]
            entries.append((float(group.mean()), len(group)))
            start = i
    return tuple(entries)


def _reference_cell(x, fmt: str):
    """A typed cell, or a list, tuple or dict of them, as CSV text or a JSON value."""
    if isinstance(x, float):
        text = f"{float(x):.12g}"
        return float(text) if fmt == "json" else text
    if isinstance(x, bool) and fmt == "csv":
        return str(x).lower()
    if isinstance(x, Fraction) or fmt == "csv":
        return str(x)
    if isinstance(x, dict):
        return {key: _reference_cell(value, fmt) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_reference_cell(value, fmt) for value in x]
    return x


def render_reference(table, fmt: str) -> str:
    """A symppt.cli.Table as text: the document {**header, key: rows, **trailer},
    each row a dict of its columns, written by json.dumps(indent=2), or CSV
    lines of the cells.  It is the CLI's renderer before its direct emitter,
    except that tuples are rounded like lists: that renderer passed them to
    json.dumps unrounded, and no command puts one in a header or trailer."""
    if fmt == "text":
        return table.text
    if fmt == "csv":
        lines = [table.csv_columns or table.columns]
        lines += [[_reference_cell(x, fmt) for x in row] for row in table.rows]
        return "\n".join(",".join(line) for line in lines) + "\n"
    doc = dict(table.header)
    if table.key:
        doc[table.key] = [dict(zip(table.columns, row)) for row in table.rows]
    doc.update(table.trailer)
    return json.dumps(_reference_cell(doc, fmt), indent=2) + "\n"
