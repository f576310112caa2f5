"""Entanglement witnesses diagonal in the Dicke basis plus an anticorner.

The built-in witnesses certify entanglement of the uniparametric GHZ
mixtures in the region where those mixtures are already absolutely PPT
within the symmetric sector.  Validity over separable symmetric states
reduces to positivity over the spin-coherent product manifold, which this
module checks by a refined 1-D search, cross-checked on a 2-D grid whose
rows are monotone in cos(n phi), so two phi columns hold its exact minimum.
"""

from __future__ import annotations

import math

import numpy as np

from .combx import GRID_DEFAULT, Witness
from .symstate import SymmetricDensityMatrix, _check_traces, ghz_state, mix_with_identity

__all__ = [
    "ghz_witness_mixture",
    "expectation_value",
    "product_state_expectation",
    "minimize_over_products",
]

GRID_SIDE_CAP = 100_000
# Relative to the witness's scale max(max |w_a|, 2 |corner| 2^-n), on |grid minimum - refined minimum|.
GRID_AGREEMENT_TOL = 1e-6
# Absolute, on the width in radians of the theta bracket that golden section stops at.
REFINE_TOL = 1e-8
GOLDEN_LOOKAHEAD = 4


def ghz_witness_mixture(n: int, p) -> SymmetricDensityMatrix:
    """The GHZ mixture in the phase the built-in witnesses couple to.

    The witnesses carry a negative corner, so they detect the GHZ
    representative with +1/2 corner coherence; that state is related to
    the -phase convention by a symmetric product unitary and shares its
    spectrum, SAPPT threshold and entanglement properties.  An array of p
    gives the stack of their mixtures.
    """
    return mix_with_identity(n, p, ghz_state(n, sign=+1))


def _evaluate(w: Witness, rows: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Tr(rho W) per state from its real diagonal, one row each, and its corner sum rho[0, -1] +
    rho[-1, 0], real as b + (-b) = 0 exactly.  One BLAS dot per row: a stacked matmul sums in
    another order and can change the last bit."""
    if rows.shape[-1] != w.dim:
        raise ValueError(f"expectation_value: state dim {rows.shape[-1]} != witness dim {w.dim}")
    diagonal = np.array(w.diagonal)
    with np.errstate(all="ignore"):  # a sum past double range is refused below, with no warning
        val = np.array([row @ diagonal for row in rows]) + w.corner * corners
    if not np.isfinite(val).all():
        raise ValueError(f"witness {w.name}: expectation leaves double range")
    return np.real(val)


def expectation_value(rho: SymmetricDensityMatrix, w: Witness):
    """Tr(rho W) for a symmetric qubit density matrix; for a stack, an array of one per matrix.

    rho's matrix is read-only, finite and exactly Hermitian from its constructor, so neither is
    checked again.
    """
    if rho.d != 2:
        raise ValueError("expectation_value: witnesses act on qubit sectors")
    mats = rho.matrix
    rows = np.real(np.diagonal(mats, axis1=-2, axis2=-1)).reshape(-1, mats.shape[-1])
    val = _evaluate(w, rows, mats[..., 0, -1] + mats[..., -1, 0])
    return val if mats.ndim == 3 else float(val[0])


def _ghz_expectations(w: Witness, n: int, ps: np.ndarray) -> np.ndarray:
    """expectation_value(ghz_witness_mixture(n, ps), w) for a nonempty ps, bit for bit, with no D x D
    matrix per p: rho(p)'s diagonal and corners are made by the operations of mix_with_identity.

    Each row is dotted on the strided real view of its complex row, as a matrix's diagonal is:
    OpenBLAS's unit-stride ddot sums in another order, so a contiguous copy changes some last bits.
    rho(ps[0]) and rho(ps[-1]) are built as one container stack, so both are checked Hermitian, of
    unit trace and PSD.  rho(p) is affine in p and the PSD cone is convex, so every rho(p) between
    them is PSD; each is exactly Hermitian, with a real diagonal and conjugate corners.  Each p's
    row sum gets the container's trace check.
    """
    ghz_witness_mixture(n, ps[[0, -1]])
    a = ghz_state(n, sign=+1).amplitudes
    rows = (ps[:, None] / len(a)) * (1 + 0j) + (1 - ps[:, None]) * (a * a.conj())
    _check_traces(rows.sum(axis=-1))
    return _evaluate(w, np.real(rows), (1 - ps) * (a[0] * a[-1].conj()) + (1 - ps) * (a[-1] * a[0].conj()))


def _values(w: Witness, thetas: np.ndarray, cos_nphi: np.ndarray) -> np.ndarray:
    """Diagonal term f(theta) plus 2 corner g(theta) cos(n phi), g >= 0, for each theta and
    each given cos(n phi), as a (len(thetas), len(cos_nphi)) array; ValueError if not finite."""
    try:
        with np.errstate(all="ignore"):
            c2 = np.cos(thetas / 2) ** 2
            s2 = np.sin(thetas / 2) ** 2
            f = sum(wa * math.comb(w.n, a) * c2 ** (w.n - a) * s2**a
                    for a, wa in enumerate(w.diagonal))
            g = (c2 * s2) ** (w.n / 2)
            vals = f[:, None] + 2 * w.corner * g[:, None] * cos_nphi[None, :]
    except OverflowError:  # math.comb(n, a) leaves double range from n = 1030
        vals = np.array(math.nan)
    if not np.isfinite(vals).all():
        raise ValueError(f"witness {w.name}: product-state expectation leaves double range")
    return vals


def product_state_expectation(w: Witness, theta: float, phi: float) -> float:
    """Expectation of the witness on the product state with Bloch angles (theta, phi)."""
    return float(_values(w, np.array([float(theta)]), np.array([math.cos(w.n * phi)]))[0, 0])


def _golden_min(f, lo: float, hi: float, tol: float):
    """Golden-section minimum of a unimodal-enough f on [lo, hi]; f maps an array of points to their
    values.  A batch holds every point the next GOLDEN_LOOKAHEAD steps can reach (2 + 4 + 8 + 16) as a
    heap: the step at node k takes point i = 2k if f1 <= f2, else 2k + 1, and goes to node i + 1.  The
    steps visit the points of one call per step; a batch that raises is redone a visited point at a time."""
    ratio = (math.sqrt(5) - 1) / 2
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = f(np.array([x1, x2]))
    while hi - lo > tol and lo < x1 < x2 < hi:
        nodes, points = [(lo, hi, x1, x2)], []
        for k in range(2**GOLDEN_LOOKAHEAD - 1):
            a, b, p1, p2 = nodes[k]
            points += [p2 - ratio * (p2 - a), p1 + ratio * (b - p1)]
            nodes += [(a, p2, points[-2], p1), (p1, b, p2, points[-1])]
        try:
            values = f(np.array(points))
        except ValueError:  # perhaps only at a point no step visits
            values = None
        k = 0
        for _ in range(GOLDEN_LOOKAHEAD):
            if not (hi - lo > tol and lo < x1 < x2 < hi):
                break
            left = f1 <= f2
            i = 2 * k + (not left)
            fx = f(np.array(points[i:i + 1]))[0] if values is None else values[i]
            if left:
                hi, x2, f2, x1, f1 = x2, x1, f1, points[i], fx
            else:
                lo, x1, f1, x2, f2 = x1, x2, f2, points[i], fx
            k = i + 1
    x = (lo + hi) / 2
    return x, f(np.array([x]))[0]


def minimize_over_products(w: Witness, grid: tuple[int, int] = GRID_DEFAULT):
    """Global minimum of the witness over spin-coherent product states.

    Returns (value, (theta, phi)) as Python floats.  The corner term enters as
    2 * corner * g(theta) * cos(n phi) with g >= 0, so the minimizing phi
    is 0 for corner <= 0 and pi/n otherwise, reducing the search to theta;
    the palindromic diagonal makes the profile symmetric about pi/2, so
    theta is canonicalized to [0, pi/2].  A coarse theta scan is refined by golden
    section to 1e-8, in batches of points, and the W x H grid (each side at most GRID_SIDE_CAP)
    double-checks the result to 1e-6 times the witness's scale in O(W + H) memory:
    its minimum lies in the two phi columns of least and greatest cos(n phi).
    """
    grid_w, grid_h = grid
    if grid_w < 3 or grid_h < 1:
        raise ValueError(f"minimize_over_products: grid {grid} too coarse")
    if max(grid) > GRID_SIDE_CAP:
        raise ValueError(f"minimize_over_products: grid {grid} exceeds {GRID_SIDE_CAP} per side")
    phi_star = 0.0 if w.corner <= 0 else math.pi / w.n
    cos_star = np.array([math.cos(w.n * phi_star)])
    half = np.linspace(0.0, math.pi / 2, max(grid_w // 2 + 1, 3))
    profile = _values(w, half, cos_star)[:, 0]
    i = int(np.argmin(profile))
    lo, hi = half[max(i - 1, 0)], half[min(i + 1, len(half) - 1)]
    theta_best, val_best = _golden_min(lambda t: _values(w, t, cos_star)[:, 0], lo, hi, REFINE_TOL)
    # the true minimum may sit on the boundary of the fold domain, the profile's ends at 0 and pi/2
    for end in (0, -1):
        if profile[end] < val_best:
            theta_best, val_best = half[end], profile[end]

    thetas = np.linspace(0.0, math.pi, grid_w)
    cos_nphi = np.cos(w.n * np.linspace(0.0, 2 * math.pi, grid_h, endpoint=False))
    # Row theta of the W x H array is fl(f + fl(s x)) over x = cos(n phi), s = fl(2 corner g).
    # Rounding is monotone, so the row never decreases in x if s >= 0 and never increases if
    # s < 0: the columns of least and greatest x hold its minimum, and grid_min is bitwise exact.
    grid_min = float(_values(w, thetas, np.array([cos_nphi.min(), cos_nphi.max()])).min())
    # Relative to s = max(max |w_a|, 2 |corner| 2^-n, least normal double): on product states
    # |<W>| <= max |w_a| + 2 |corner| 2^-n <= 2 s, as 0 <= g <= 2^-n.  s = 1 for W5, W7, W9.
    tol = GRID_AGREEMENT_TOL * max(*map(abs, w.diagonal), 2 * abs(w.corner) * 2.0**-w.n, np.finfo(float).tiny)
    if abs(grid_min - val_best) > tol:
        raise RuntimeError(
            f"minimize_over_products: 2-D grid minimum {grid_min} and refined minimum "
            f"{val_best} disagree beyond {tol:.3g}"
        )
    return float(val_best), (float(theta_best), phi_star)
