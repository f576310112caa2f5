"""Entanglement witnesses diagonal in the Dicke basis plus an anticorner.

The built-in witnesses certify entanglement of the uniparametric GHZ
mixtures in the region where those mixtures are already absolutely PPT
within the symmetric sector.  Validity over separable symmetric states
reduces to positivity over the spin-coherent product manifold, which this
module checks by a refined 1-D search, cross-checked on a 2-D grid whose
rows are monotone in cos(n phi), so two phi columns hold its exact minimum.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .symstate import SymmetricDensityMatrix, _json_object, ghz_state, mix_with_identity

__all__ = [
    "Witness",
    "builtin_witness",
    "ghz_witness_mixture",
    "expectation_value",
    "product_state_expectation",
    "minimize_over_products",
    "detection_threshold",
    "witness_to_json",
    "witness_from_json",
    "load_witness_file",
]

GRID_DEFAULT = (721, 360)
GRID_SIDE_CAP = 100_000
GRID_AGREEMENT_TOL = 1e-6
REFINE_TOL = 1e-8

# Published coefficients, parsed verbatim from their decimal form.  The
# diagonal runs over Dicke excitation 0..n and is palindromic; the corner
# couples |D^(0)><D^(n)| + |D^(n)><D^(0)|.
_BUILTIN_COEFFS = {
    "W5": (("0.0366656", "-0.134595", "1", "1", "-0.134595", "0.0366656"), "-9.31947"),
    "W7": (
        ("0.00197514", "0.0643064", "-0.189017", "1", "1", "-0.189017", "0.0643064", "0.00197514"),
        "-31.2405",
    ),
    "W9": (
        (
            "0.00235791",
            "-0.013747",
            "0.0621661",
            "-0.1636915",
            "1",
            "1",
            "-0.1636915",
            "0.0621661",
            "-0.013747",
            "0.00235791",
        ),
        "-114.305",
    ),
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

    def matrix(self) -> np.ndarray:
        mat = np.diag(np.array(self.diagonal))
        mat[0, -1] = mat[-1, 0] = self.corner
        return mat


def builtin_witness(name: str) -> Witness:
    """One of the published witnesses W5, W7, W9."""
    if name not in _BUILTIN_COEFFS:
        raise ValueError(f"builtin_witness: unknown witness {name!r}, expected one of W5, W7, W9")
    return Witness(name, *_BUILTIN_COEFFS[name])


def ghz_witness_mixture(n: int, p) -> SymmetricDensityMatrix:
    """The GHZ mixture in the phase the built-in witnesses couple to.

    The witnesses carry a negative corner, so they detect the GHZ
    representative with +1/2 corner coherence; that state is related to
    the -phase convention by a symmetric product unitary and shares its
    spectrum, SAPPT threshold and entanglement properties.  An array of p
    gives the stack of their mixtures.
    """
    return mix_with_identity(n, p, ghz_state(n, sign=+1))


def expectation_value(rho: SymmetricDensityMatrix, w: Witness):
    """Tr(rho W) for a symmetric qubit density matrix; for a stack, an array of one per matrix."""
    if rho.d != 2:
        raise ValueError("expectation_value: witnesses act on qubit sectors")
    if rho.dim != w.dim:
        raise ValueError(f"expectation_value: state dim {rho.dim} != witness dim {w.dim}")
    mats = rho.matrix
    diagonal = np.array(w.diagonal)
    # One BLAS dot per matrix: a stacked matmul sums in another order and can change the last bit.
    rows = np.real(np.diagonal(mats, axis1=-2, axis2=-1)).reshape(-1, w.dim)
    val = np.array([row @ diagonal for row in rows])
    val = val + w.corner * (mats[..., 0, -1] + mats[..., -1, 0])
    bad = np.imag(val)[np.abs(np.imag(val)) > 1e-12]
    if bad.size:
        raise RuntimeError(f"expectation_value: imaginary part {bad[0]} exceeds 1e-12")
    return np.real(val) if mats.ndim == 3 else float(np.real(val[0]))


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


def minimize_over_products(w: Witness, grid: tuple[int, int] = GRID_DEFAULT):
    """Global minimum of the witness over spin-coherent product states.

    Returns (value, (theta, phi)) as Python floats.  The corner term enters as
    2 * corner * g(theta) * cos(n phi) with g >= 0, so the minimizing phi
    is 0 for corner <= 0 and pi/n otherwise, reducing the search to theta;
    the palindromic diagonal makes the profile symmetric about pi/2, so
    theta is canonicalized to [0, pi/2].  A coarse theta scan is refined
    by golden section to 1e-8, and the W x H grid (each side at most
    GRID_SIDE_CAP) double-checks the result to 1e-6 in O(W + H) memory: its
    minimum lies in the two phi columns of least and greatest cos(n phi).
    """
    grid_w, grid_h = grid
    if grid_w < 3 or grid_h < 1:
        raise ValueError(f"minimize_over_products: grid {grid} too coarse")
    if max(grid) > GRID_SIDE_CAP:
        raise ValueError(f"minimize_over_products: grid {grid} exceeds {GRID_SIDE_CAP} per side")
    phi_star = 0.0 if w.corner <= 0 else math.pi / w.n
    line = functools.partial(product_state_expectation, w, phi=phi_star)
    half = np.linspace(0.0, math.pi / 2, max(grid_w // 2 + 1, 3))
    i = int(np.argmin(_values(w, half, np.array([math.cos(w.n * phi_star)]))))
    lo = half[max(i - 1, 0)]
    hi = half[min(i + 1, len(half) - 1)]
    theta_best, val_best = _golden_min(line, lo, hi, REFINE_TOL)
    # the true minimum may sit on the boundary of the fold domain
    for theta_edge in (0.0, math.pi / 2):
        val_edge = line(theta_edge)
        if val_edge < val_best:
            theta_best, val_best = theta_edge, val_edge

    thetas = np.linspace(0.0, math.pi, grid_w)
    cos_nphi = np.cos(w.n * np.linspace(0.0, 2 * math.pi, grid_h, endpoint=False))
    # Row theta of the W x H array is fl(f + fl(s x)) over x = cos(n phi), s = fl(2 corner g).
    # Rounding is monotone, so the row never decreases in x if s >= 0 and never increases if
    # s < 0: the columns of least and greatest x hold its minimum, and grid_min is bitwise exact.
    grid_min = float(_values(w, thetas, np.array([cos_nphi.min(), cos_nphi.max()])).min())
    if abs(grid_min - val_best) > GRID_AGREEMENT_TOL:
        raise RuntimeError(
            f"minimize_over_products: 2-D grid minimum {grid_min} and refined minimum "
            f"{val_best} disagree beyond {GRID_AGREEMENT_TOL}"
        )
    return float(val_best), (float(theta_best), phi_star)


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
    if abs(denom) < 1e-12:
        raise ValueError("detection_threshold: degenerate denominator, expectation constant in p")
    return g / denom


def witness_to_json(w: Witness) -> str:
    return json.dumps(
        {"name": w.name, "dim": w.dim, "diagonal": list(w.diagonal), "corner": w.corner}
    )


def witness_from_json(text: str) -> Witness:
    """Parse {"name", "dim", "diagonal", "corner"}: the diagonal an array of JSON numbers, the
    corner a JSON number, dim a JSON integer.  Malformed input raises ValueError."""
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
    try:
        return Witness(str(data.get("name", "custom")), diag, corner)
    except OverflowError as exc:  # an integer past double range
        raise ValueError(f"witness_from_json: {exc}") from None


def load_witness_file(path) -> Witness:
    with open(path, encoding="utf-8") as fh:
        return witness_from_json(fh.read())
