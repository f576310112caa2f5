"""Built-in witnesses: expectations, product-state validity, thresholds."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symppt import (
    SymmetricDensityMatrix,
    Witness,
    builtin_witness,
    detection_threshold,
    expectation_value,
    ghz_witness_mixture,
    load_witness_file,
    minimize_over_products,
    mix_with_identity,
    product_state_expectation,
    sappt_threshold_qubits,
    symstate,
    witness,
    witness_from_json,
    witness_to_json,
)
from symppt.witness import GRID_AGREEMENT_TOL, GRID_SIDE_CAP, REFINE_TOL

from oracles import _golden_min as golden_min_sequential
from oracles import dense_grid_min, minimize_over_products_dense, product_value, refused_in_place

FINITE = st.floats(allow_nan=False, allow_infinity=False)
COEFF = st.floats(-100, 100)


def float_bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()

W5_DIAG = (0.0366656, -0.134595, 1.0, 1.0, -0.134595, 0.0366656)
W7_DIAG = (0.00197514, 0.0643064, -0.189017, 1.0, 1.0, -0.189017, 0.0643064, 0.00197514)
W9_DIAG = (
    0.00235791,
    -0.013747,
    0.0621661,
    -0.1636915,
    1.0,
    1.0,
    -0.1636915,
    0.0621661,
    -0.013747,
    0.00235791,
)


class TestBuiltins:
    def test_w5_structure(self):
        w = builtin_witness("W5")
        assert w.diagonal == W5_DIAG
        assert w.corner == -9.31947
        mat = w.matrix()
        assert np.array_equal(np.diag(mat), np.array(W5_DIAG))
        assert mat[0, 5] == mat[5, 0] == -9.31947

    def test_w7_structure(self):
        w = builtin_witness("W7")
        assert w.diagonal == W7_DIAG
        assert w.corner == -31.2405

    def test_w9_structure(self):
        w = builtin_witness("W9")
        assert w.diagonal == W9_DIAG
        assert w.corner == -114.305

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_witness("W11")

    def test_palindrome_enforced(self):
        with pytest.raises(ValueError):
            Witness("bad", (1.0, 2.0, 3.0), 0.5)


class TestExpectation:
    def test_ghz_mixture_w5(self):
        rho = ghz_witness_mixture(5, float(Fraction(30, 31)))
        assert expectation_value(rho, builtin_witness("W5")) == pytest.approx(-0.0085, abs=5e-4)

    def test_ghz_mixture_w7(self):
        rho = ghz_witness_mixture(7, float(Fraction(140, 141)))
        assert expectation_value(rho, builtin_witness("W7")) == pytest.approx(-0.0038, abs=5e-4)

    def test_ghz_mixture_w9(self):
        rho = ghz_witness_mixture(9, float(Fraction(630, 631)))
        assert expectation_value(rho, builtin_witness("W9")) == pytest.approx(-0.004, abs=1e-3)

    def test_maximally_mixed_closed_form(self):
        from symppt import ghz_state

        rho = mix_with_identity(5, 1.0, ghz_state(5))
        expected = (2 * 0.0366656 + 2 * (-0.134595) + 2) / 6
        got = expectation_value(rho, builtin_witness("W5"))
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.30069, abs=1e-5)

    def test_empty_stack_gives_an_empty_array(self):
        got = expectation_value(ghz_witness_mixture(5, np.array([])), builtin_witness("W5"))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_affine_in_p(self):
        w = builtin_witness("W5")
        samples = {p: expectation_value(ghz_witness_mixture(5, p), w) for p in (0.0, 0.5, 1.0)}
        slope = samples[1.0] - samples[0.0]
        assert samples[0.5] == pytest.approx(samples[0.0] + slope / 2, abs=1e-12)
        for p in (0.2, 0.77):
            got = expectation_value(ghz_witness_mixture(5, p), w)
            assert got == pytest.approx(samples[0.0] + slope * p, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_value(ghz_witness_mixture(5, 0.9), builtin_witness("W7"))

    def test_stack_equals_one_at_a_time(self):
        w = builtin_witness("W9")
        ps = np.linspace(0.9, 1.0, 13)
        single = [expectation_value(ghz_witness_mixture(9, p), w) for p in ps.tolist()]
        assert {type(value) for value in single} == {float}
        stacked = expectation_value(ghz_witness_mixture(9, ps), w)
        assert stacked.tobytes() == np.array(single).tobytes()

    def test_imaginary_part_mid_stack(self):
        # A state's matrix cannot change after its constructor checked it, and the constructor
        # refuses the corner asymmetry that would leave Tr(rho W) an imaginary part.
        rho = ghz_witness_mixture(5, np.array([0.2, 0.5, 0.8]))

        def skew(mats):
            mats[1, 0, -1] += 1e-9j

        message = refused_in_place(rho, skew, lambda mats: SymmetricDensityMatrix(5, 2, mats))
        assert message == "SymmetricDensityMatrix: matrix is not Hermitian within 1e-12"

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_imaginary_part_is_zero_at_any_corner_scale(self, monkeypatch, scale):
        # The constructor lets the corner pair differ from Hermitian by up to HERM_TOL and stores
        # the symmetrized matrix, whose corner sum is real: Tr(rho W) has imaginary part 0, exactly.
        w5 = builtin_witness("W5")
        w = Witness("scaled", [scale * x for x in w5.diagonal], scale * w5.corner)
        exact = ghz_witness_mixture(5, np.array([0.2, 0.97, 0.8]))
        mats = exact.matrix.copy()
        mats[1, 0, -1] += 1e-12j
        skewed = SymmetricDensityMatrix(5, 2, mats)
        assert not (skewed.matrix[:, 0, -1] + skewed.matrix[:, -1, 0]).imag.any()
        values = []
        real = np.real

        def recording(val):
            values.append(val)
            return real(val)

        monkeypatch.setattr(np, "real", recording)
        value = expectation_value(skewed, w)
        assert values[-1].shape == (3,) and not values[-1].imag.any()  # the complex Tr(rho W)
        monkeypatch.undo()
        assert value.tobytes() == expectation_value(exact, w).tobytes()

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("where", [(0, 0), (0, -1)], ids=["diagonal", "corner"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entry_after_construction(self, value, where, stack):
        rho = ghz_witness_mixture(5, np.array([0.2, 0.97, 0.8]) if stack else 0.97)

        def set_value(mats):
            (mats[1] if stack else mats)[where] = value

        message = refused_in_place(rho, set_value, lambda mats: SymmetricDensityMatrix(5, 2, mats))
        assert message == "SymmetricDensityMatrix: matrix is not Hermitian within 1e-12"

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    def test_value_past_double_range_raises_with_warnings_as_errors(self, stack):
        w = Witness("huge", (1.7e308, 0.0, 1.7e308), 1.7e308)
        rho = ghz_witness_mixture(2, np.array([0.0, 0.05, 0.1]) if stack else 0.0)
        with pytest.raises(ValueError) as info:
            expectation_value(rho, w)
        assert str(info.value) == "witness huge: expectation leaves double range"


class TestGhzExpectations:
    """scan's expectation column, witness._ghz_expectations, reads rho(p)'s diagonal and corners
    alone: it is the container route expectation_value(ghz_witness_mixture(n, ps), w), bit for bit."""

    @pytest.mark.parametrize("steps", [1, 2, 201, 1001])
    @pytest.mark.parametrize("name", ["W5", "W7", "W9", "file"])
    def test_bitwise_equal_to_the_container_route(self, name, steps, tmp_path):
        if name == "file":
            path = tmp_path / "neg.json"
            path.write_text(json.dumps({"name": "neg", "diagonal": [1.0, -0.3, 0.5, 0.5, -0.3, 1.0],
                                        "corner": -0.7}), encoding="utf-8")
            w = load_witness_file(str(path))
        else:
            w = builtin_witness(name)
        for p_from, p_to in [(0.0, 1.0), (0.0, 0.37), (0.95, 1.0), (1.0, 1.0), (0.0, 0.0)]:
            ps = np.linspace(p_from, p_to, steps)
            got = witness._ghz_expectations(w, w.n, ps)
            assert got.dtype == np.float64 and got.shape == (steps,)
            assert got.tobytes() == expectation_value(ghz_witness_mixture(w.n, ps), w).tobytes()

    def test_end_states_are_the_only_matrices(self, monkeypatch):
        built = []
        density = symstate.SymmetricDensityMatrix

        def record(n, d, mats):
            built.append(np.shape(mats))
            return density(n, d, mats)

        monkeypatch.setattr(symstate, "SymmetricDensityMatrix", record)
        witness._ghz_expectations(builtin_witness("W9"), 9, np.linspace(0.9, 1.0, 1001))
        assert built == [(2, 10, 10)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^expectation_value: state dim 6 != witness dim 8$"):
            witness._ghz_expectations(builtin_witness("W7"), 5, np.linspace(0.9, 1.0, 3))

    def test_value_past_double_range(self):
        w = Witness("huge", (1.7e308, 0.0, 1.7e308), 1.7e308)
        with pytest.raises(ValueError, match=r"^witness huge: expectation leaves double range$"):
            witness._ghz_expectations(w, 2, np.linspace(0.0, 0.1, 3))


class TestProductExpectation:
    def test_w5_equator(self):
        got = product_state_expectation(builtin_witness("W5"), math.pi / 2, 0.0)
        a, b, c = 0.0366656, -0.134595, -9.31947
        assert got == pytest.approx((2 * a + 10 * b + 20 + 2 * c) / 32, abs=1e-14)
        assert got == pytest.approx(0.0027638, abs=1e-7)

    def test_w7_north_pole(self):
        assert product_state_expectation(builtin_witness("W7"), 0.0, 0.0) == pytest.approx(
            0.00197514, abs=1e-14
        )

    def test_w5_north_pole(self):
        assert product_state_expectation(builtin_witness("W5"), 0.0, 0.7) == pytest.approx(
            0.0366656, abs=1e-14
        )

    def test_matches_coherent_state_expectation(self):
        from symppt import coherent_state

        rng = np.random.default_rng(67)
        w = builtin_witness("W7")
        for _ in range(20):
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            rho = coherent_state(7, theta, phi).density()
            assert product_state_expectation(w, theta, phi) == pytest.approx(
                expectation_value(rho, w), abs=1e-12
            )

    def test_bitwise_equal_to_oracle(self):
        rng = np.random.default_rng(73)
        for name in ("W5", "W7", "W9"):
            w = builtin_witness(name)
            for theta, phi in rng.uniform(-7, 7, size=(300, 2)):
                got = product_state_expectation(w, theta, phi)
                assert float_bits([got]) == float_bits([product_value(w, theta, phi)])

    def test_phi_periodicity(self):
        rng = np.random.default_rng(71)
        for name, n in [("W5", 5), ("W7", 7), ("W9", 9)]:
            w = builtin_witness(name)
            for _ in range(10):
                theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
                assert product_state_expectation(w, theta, phi) == pytest.approx(
                    product_state_expectation(w, theta, phi + 2 * math.pi / n), abs=1e-12
                )


class TestMinimizeOverProducts:
    def test_w5(self):
        val, (theta, phi) = minimize_over_products(builtin_witness("W5"))
        assert val == pytest.approx(0.00276, abs=1e-4)
        assert theta == pytest.approx(math.pi / 2, abs=1e-3)
        assert phi == 0.0

    def test_w7(self):
        val, (theta, phi) = minimize_over_products(builtin_witness("W7"))
        assert val == pytest.approx(0.001975, abs=1e-4)
        assert theta == pytest.approx(0.0, abs=1e-3)
        assert phi == 0.0

    def test_w9(self):
        val, (theta, phi) = minimize_over_products(builtin_witness("W9"))
        assert val == pytest.approx(0.0002234, abs=5e-5)
        assert theta == pytest.approx(0.381, abs=1e-3)
        assert phi == 0.0

    @pytest.mark.parametrize(
        "w",
        [builtin_witness("W5"), builtin_witness("W7"), builtin_witness("W9"), Witness("zero", (0.0,) * 6, 0.0)],
        ids=["W5", "W7", "W9", "zero"],
    )
    def test_returns_python_floats(self, w):
        # W5's minimum is the edge point theta = pi/2; W7, W9 and the flat zero
        # witness end on the golden-section path.  Both paths return plain floats.
        val, (theta, phi) = minimize_over_products(w)
        assert (type(val), type(theta), type(phi)) == (float, float, float)
        assert (theta == math.pi / 2) == (w.name == "W5")

    def test_fold_edges_come_from_the_coarse_scan(self, monkeypatch):
        w, grid = builtin_witness("W9"), (721, 360)
        expected = minimize_over_products_dense(w, grid, GRID_AGREEMENT_TOL)
        golden, batches = witness._golden_min, []

        def recorded(f, lo, hi, tol):
            return golden(lambda t: batches.append(t.copy()) or f(t), lo, hi, tol)

        monkeypatch.setattr(witness, "_golden_min", recorded)
        val, (theta, phi) = minimize_over_products(w, grid)
        # the first pair, 29 steps to 1e-8 in batches of 4 and the midpoint; the edges 0 and
        # pi/2 come from the scan
        assert [len(t) for t in batches] == [2] + [30] * 8 + [1]
        assert not np.isin([0.0, math.pi / 2], np.concatenate(batches)).any()
        assert float_bits([val, theta, phi]) == float_bits([expected[0], *expected[1]])

    def test_all_builtins_strictly_positive(self):
        for name in ("W5", "W7", "W9"):
            val, _ = minimize_over_products(builtin_witness(name))
            assert val >= 1e-5

    def test_grid_agrees_with_refinement(self):
        # re-derive the 2-D grid minimum independently and compare
        for name in ("W5", "W7", "W9"):
            w = builtin_witness(name)
            val, _ = minimize_over_products(w)
            thetas = np.linspace(0, math.pi, 721)
            phis = np.linspace(0, 2 * math.pi, 360, endpoint=False)
            grid_min = min(
                product_state_expectation(w, th, ph)
                for th in thetas[:: 36]
                for ph in phis[:: 18]
            )
            # coarse subsample only sanity-checks the scale
            assert grid_min >= val - 1e-12
            full = np.array(
                [product_state_expectation(w, th, 0.0) for th in thetas]
            ).min()
            assert abs(full - val) < 1e-6

    def test_positive_corner_moves_phi(self):
        w = Witness("flipped", (1.0, 0.2, 0.2, 1.0), 0.4)
        val, (theta, phi) = minimize_over_products(w)
        assert phi == pytest.approx(math.pi / 3, abs=1e-12)
        brute = min(
            product_state_expectation(w, th, ph)
            for th in np.linspace(0, math.pi, 400)
            for ph in np.linspace(0, 2 * math.pi, 90, endpoint=False)
        )
        assert val <= brute + 1e-9

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            minimize_over_products(builtin_witness("W5"), grid=(2, 1))

    def test_grid_side_cap(self):
        w = builtin_witness("W5")
        for grid in [(GRID_SIDE_CAP + 1, 4), (4, GRID_SIDE_CAP + 1)]:
            with pytest.raises(ValueError, match=f"exceeds {GRID_SIDE_CAP} per side"):
                minimize_over_products(w, grid)
        val, _ = minimize_over_products(w, (GRID_SIDE_CAP, GRID_SIDE_CAP))
        assert val == pytest.approx(0.00276, abs=1e-4)

    def test_cross_check_memory_does_not_grow_with_w_times_h(self):
        w = builtin_witness("W9")
        minimize_over_products(w, (5, 3))
        tracemalloc.start()
        try:
            minimize_over_products(w, (2881, 1440))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGoldenMin:
    """The batched golden section against the sequential one of tests/oracles.py, bit for
    bit: the same visited points give the same minimum and value."""

    @staticmethod
    def check(f, lo, hi, tol=REFINE_TOL):
        batched = witness._golden_min(lambda t: np.array([f(float(x)) for x in t]), lo, hi, tol)
        assert float_bits(batched) == float_bits(golden_min_sequential(f, lo, hi, tol))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(a=st.floats(0.01, 100), c=st.floats(-2, 3), b=COEFF, tol=st.sampled_from([1e-8, 1e-12, 1e-15]))
    def test_quadratics(self, a, c, b, tol):
        self.check(lambda t: a * (t - c) * (t - c) + b, 0.0, 1.0, tol)

    def test_flat_function_ties_at_every_step(self):
        self.check(lambda t: 0.0, 0.0, math.pi / 2)
        self.check(lambda t: 0.0, 0.3, 0.30000000001, 1e-15)

    @pytest.mark.parametrize("steps", [1, 3, 10, 1000])
    @pytest.mark.parametrize("shift", [0.1, 0.5, 0.77])
    def test_step_functions(self, steps, shift):
        self.check(lambda t: abs(math.floor((t - shift) * steps)), 0.0, 1.0)

    def test_unvisited_points_that_raise_change_nothing(self):
        # Every batch reaches past 0.9, where this f raises; the steps never go there.
        def f(t):
            if t > 0.9:
                raise ValueError("f: past 0.9")
            return (t - 0.2) * (t - 0.2)

        def vector(t):
            return np.array([f(float(x)) for x in t])

        assert float_bits(witness._golden_min(vector, 0.0, 1.0, REFINE_TOL)) == float_bits(
            golden_min_sequential(f, 0.0, 1.0, REFINE_TOL)
        )
        with pytest.raises(ValueError, match="past 0.9"):
            witness._golden_min(vector, 0.95, 1.0, REFINE_TOL)

    def test_ends_where_the_interval_stops_shrinking(self):
        # No interval of floats is narrower than tol = 0, nor [1e10, 1e10 + 1e-5] (spacing 1.9e-6)
        # than 1e-8: the search ends when a step can no longer shrink it.  The calls run in a child
        # process, so a search that never ends fails by the timeout.
        code = """
from symppt.witness import REFINE_TOL, _golden_min
f = lambda t: (t - 0.2) ** 2
for lo, hi, tol in ((0.0, 1.0, 0.0), (1e10, 1e10 + 1e-5, REFINE_TOL)):
    x, fx = _golden_min(f, lo, hi, tol)
    print(float(x), float(fx))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.stdout == f"0.2 0.0\n{1e10 + 2**-19} {(1e10 + 2**-19 - 0.2) ** 2}\n"


def parent_route(w, grid):
    """minimize_over_products with the refinement it had before batching: the sequential golden
    section of tests/oracles.py over product_state_expectation, one point per call."""
    phi_star = 0.0 if w.corner <= 0 else math.pi / w.n

    def sequential(f, lo, hi, tol):
        return golden_min_sequential(lambda t: product_state_expectation(w, t, phi_star), lo, hi, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "_golden_min", sequential)
        return minimize_over_products(w, grid)


def route_outcome(minimize, w, grid):
    """The bits of (value, theta, phi), or the exception's type and message."""
    try:
        val, (theta, phi) = minimize(w, grid)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return float_bits([val, theta, phi])


MAX = 1.7976931348623157e308
EDGE = 1 - 3 * 2.0**-53
# On n = 2 these are flat at about -MAX, so whether a point overflows hangs on its rounding.
NEAR_MAX_WITNESSES = [
    (Witness("edge", (-MAX * e, -MAX * e / 2, -MAX * e), -MAX * e * c), grid)
    for e, c, grid in [(EDGE, 0.5, (11, 1)), (EDGE, 0.4999999999999999, (9, 1)), (1.0, 0.5, (3, 1)),
                       (1 - 2.0**-53, 0.5, (5, 1)), (EDGE, 0.5, (721, 360))]
]


class TestBatchedRefinement:
    """minimize_over_products against its route before batching, bit for bit: the result, or
    the exception's type and message."""

    @pytest.mark.parametrize("grid", [(721, 360), (1441, 720), (2881, 1440)])
    @pytest.mark.parametrize("name", ["W5", "W7", "W9"])
    def test_builtins(self, name, grid):
        w = builtin_witness(name)
        assert route_outcome(minimize_over_products, w, grid) == route_outcome(parent_route, w, grid)

    def test_random_witnesses(self):
        rng = np.random.default_rng(20240521)
        kinds = set()
        for i in range(240):
            n = int(rng.integers(2, 41))
            half = rng.uniform(-1, 2, n // 2 + 1)
            diag = tuple(np.concatenate([half, half[: (n + 1) // 2][::-1]]))
            corner = float(rng.uniform(-20, 20))
            if i % 8 == 7:  # scaled to 1.7e308, so C(n, a) w_a leaves double range
                top = max(map(abs, diag + (corner,)))
                diag, corner = tuple(x / top * 1.7e308 for x in diag), corner / top * 1.7e308
            w = Witness("random", diag, corner)
            grid = [(721, 360), (3, 1), (40, 7), (1441, 720)][i % 4]
            got = route_outcome(minimize_over_products, w, grid)
            assert got == route_outcome(parent_route, w, grid), (w, grid)
            kinds.add((w.corner > 0, got[0] if isinstance(got, tuple) else float))
        # both corner signs, and every outcome: a value, a failed grid cross-check, an overflow
        assert kinds >= {(s, k) for s in (False, True) for k in (float, RuntimeError, ValueError)}

    @pytest.mark.parametrize("case", range(len(NEAR_MAX_WITNESSES)))
    def test_near_double_range(self, case):
        w, grid = NEAR_MAX_WITNESSES[case]
        assert route_outcome(minimize_over_products, w, grid) == route_outcome(parent_route, w, grid)


def outcome(minimize, *args):
    """(value, (theta, phi)) or the agreement error's message, as an exact repr."""
    try:
        return repr(minimize(*args))
    except RuntimeError as exc:
        return str(exc)


def raw_grid_min(w, grid) -> float:
    """The library's 2-D grid minimum, read from the agreement error that a
    negative tolerance forces on every call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "GRID_AGREEMENT_TOL", -1.0)
        with pytest.raises(RuntimeError) as err:
            minimize_over_products(w, grid)
    return float(str(err.value).split()[4])


@st.composite
def palindromic_witnesses(draw):
    half = draw(st.lists(COEFF, min_size=1, max_size=8))
    middle = draw(st.lists(COEFF, max_size=1))
    return Witness("random", tuple(half + middle + half[::-1]), draw(COEFF))


@pytest.mark.parametrize("name, inside, outside", [("W5", (716, 360), (352, 360)), ("W9", (51, 360), (114, 360))])
def test_grid_agreement_boundary(name, inside, outside):
    # GRID_AGREEMENT_TOL = 1e-6, written out, at scale 1: grid-vs-refined gaps of 7.0e-7 (W5) and
    # 6.7e-7 (W9) pass, and 2.9e-6 (W5) and 2.5e-6 (W9) raise.
    w = builtin_witness(name)
    minimize_over_products(w, inside)
    with pytest.raises(RuntimeError) as info:
        minimize_over_products(w, outside)
    assert re.fullmatch(r"minimize_over_products: 2-D grid minimum \S+ and refined minimum \S+ disagree beyond 1e-06",
                        str(info.value))


class TestGridCrossCheck:
    """The two-column cross-check against the full W x H array of tests/oracles.py,
    bit for bit: the result, the raw grid minimum and the agreement error."""

    def check(self, w, grid):
        assert outcome(minimize_over_products, w, grid) == outcome(
            minimize_over_products_dense, w, grid, GRID_AGREEMENT_TOL
        )
        assert float_bits([raw_grid_min(w, grid)]) == float_bits([dense_grid_min(w, grid)])

    @pytest.mark.parametrize("grid", [(3, 1), (721, 360), (1441, 720), (2881, 1440)])
    @pytest.mark.parametrize("name", ["W5", "W7", "W9"])
    def test_builtins(self, name, grid):
        self.check(builtin_witness(name), grid)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(w=palindromic_witnesses(), grid=st.tuples(st.integers(3, 300), st.integers(1, 300)))
    @example(w=Witness("dip", (1.0, -5.0, -5.0, 1.0), 0.0), grid=(4, 1))
    @example(w=Witness("dip", (1.0, -5.0, -5.0, 1.0), 2.0), grid=(40, 7))
    def test_random_witnesses(self, w, grid):
        self.check(w, grid)

    def test_agreement_error_example(self):
        with pytest.raises(RuntimeError, match="disagree beyond"):
            minimize_over_products(Witness("dip", (1.0, -5.0, -5.0, 1.0), 0.0), (4, 1))


# Product-state values leave double range: C(1100, 550) is no double, and
# 1e300 * C(600, a) overflows to inf, which meets 0 as nan.
NONFINITE_WITNESSES = {"n=1100": ((1.0,) * 1101, -1.0), "1e300": ((1e300,) * 601, -1.0)}


class TestNonFiniteProfiles:
    @pytest.mark.parametrize("case", sorted(NONFINITE_WITNESSES))
    def test_value_error_and_no_warning(self, case):
        w = Witness(case, *NONFINITE_WITNESSES[case])
        message = f"witness {case}: product-state expectation leaves double range"
        with pytest.raises(ValueError, match=message):
            product_state_expectation(w, 0.5, 0.0)
        with pytest.raises(ValueError, match=message):
            minimize_over_products(w)


class TestDetectionThreshold:
    @pytest.mark.parametrize(
        "name,n,expected,tol",
        [("W5", 5, 0.96862, 1e-4), ("W7", 7, 0.99302, 1e-4), ("W9", 9, 0.99845, 1e-4)],
    )
    def test_reference_values(self, name, n, expected, tol):
        assert detection_threshold(builtin_witness(name), n) == pytest.approx(expected, abs=tol)

    def test_closed_form_matches_expectation_zero(self):
        for name, n in [("W5", 5), ("W7", 7), ("W9", 9)]:
            w = builtin_witness(name)
            p_star = detection_threshold(w, n)
            assert expectation_value(ghz_witness_mixture(n, p_star), w) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_interval_above_sappt_threshold(self):
        for name, n in [("W5", 5), ("W7", 7), ("W9", 9)]:
            assert detection_threshold(builtin_witness(name), n) > float(
                sappt_threshold_qubits(n)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            detection_threshold(builtin_witness("W5"), 7)

    def test_degenerate_denominator(self):
        flat = Witness("flat", (1.0, 1.0, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            detection_threshold(flat, 3)

    @pytest.mark.parametrize("corner, p_star", [
        (0.5e-12, None), (-0.5e-12, None), (2e-12, 500011061105.7514), (-2e-12, -500011061103.7514),
    ])
    def test_degenerate_slope_boundary(self, corner, p_star):
        # g - t = corner against max(|g|, |t|) = 1 here: a slope of half the 1e-12 bound is refused,
        # twice it gives p*, so a bound 10x looser or tighter fails one of the pair.
        slope = Witness("slope", (1.0, 1.0, 1.0, 1.0), corner)
        if p_star is None:
            with pytest.raises(ValueError, match="^detection_threshold: degenerate denominator, expectation "):
                detection_threshold(slope, 3)
        else:
            assert detection_threshold(slope, 3) == p_star

    # Tr W overflows; Tr W and <GHZ|W|GHZ> overflow, and inf - inf is nan; both are finite but g - t is not.
    @pytest.mark.parametrize("diagonal,corner", [
        ((1e308, 1e308), 0.0), ((1.7e308, 0.0, 1.7e308), 0.8e308), ((0.0, -1.7e308, 0.0), 1.7e308),
    ], ids=["trace", "both", "difference"])
    def test_value_past_double_range(self, diagonal, corner):
        with pytest.raises(ValueError) as info:
            detection_threshold(Witness("huge", diagonal, corner), len(diagonal) - 1)
        assert str(info.value) == (
            "detection_threshold: witness huge: <GHZ|W|GHZ> - Tr(W)/(n+1) leaves double range"
        )


class TestWitnessJson:
    def test_wire_format(self):
        data = json.loads(witness_to_json(builtin_witness("W5")))
        assert set(data) == {"name", "dim", "diagonal", "corner"}
        assert data["name"] == "W5"
        assert data["dim"] == 6
        assert data["diagonal"] == list(W5_DIAG)
        assert data["corner"] == -9.31947

    def test_round_trip(self):
        w = builtin_witness("W7")
        again = witness_from_json(witness_to_json(w))
        assert again == w

    @settings(derandomize=True, max_examples=200)
    @given(
        name=st.text(max_size=8),
        half=st.lists(FINITE, min_size=1, max_size=6),
        middle=st.one_of(st.none(), FINITE),
        corner=FINITE,
    )
    def test_round_trip_is_bitwise(self, name, half, middle, corner):
        diagonal = half + ([] if middle is None else [middle]) + half[::-1]
        w = Witness(name, tuple(diagonal), corner)
        if not name.isprintable():
            message = f"name must be printable, got {re.escape(json.dumps(name))}$"
            with pytest.raises(ValueError, match=message):
                witness_from_json(witness_to_json(w))
            return
        again = witness_from_json(witness_to_json(w))
        assert again.name == w.name
        assert float_bits(again.diagonal + (again.corner,)) == float_bits(w.diagonal + (w.corner,))

    @pytest.mark.parametrize("name", ["a\nb", "tab\there", "\x00", "line\u2028sep", "\x1b[31m"])
    def test_name_must_be_printable(self, name):
        blob = json.dumps({"name": name, "diagonal": [1, -5, 1], "corner": 0})
        with pytest.raises(ValueError) as err:
            witness_from_json(blob)
        assert str(err.value) == f"witness_from_json: name must be printable, got {json.dumps(name)}"
        assert len(str(err.value).splitlines()) == 1
        assert witness_from_json(blob.replace(json.dumps(name), '"caf\\u00e9 W"')).name == "caf\u00e9 W"

    @pytest.mark.parametrize("value", [None, 5, True, ["a"], {"a": 1}],
                             ids=["null", "number", "bool", "array", "object"])
    def test_name_must_be_a_json_string(self, value):
        blob = json.dumps({"name": value, "diagonal": [1, -5, 1], "corner": 0})
        with pytest.raises(ValueError) as err:
            witness_from_json(blob)
        assert str(err.value) == f"witness_from_json: name must be a JSON string, got {json.dumps(value)}"
        assert witness_from_json(json.dumps({"diagonal": [1, -5, 1], "corner": 0})).name == "custom"

    def test_file_loading(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(witness_to_json(builtin_witness("W9")), encoding="utf-8")
        assert load_witness_file(path) == builtin_witness("W9")

    def test_declared_dim_checked(self):
        blob = json.dumps({"name": "x", "dim": 4, "diagonal": [1.0, 1.0], "corner": 0.1})
        with pytest.raises(ValueError):
            witness_from_json(blob)

    def test_custom_witness_through_validity_check(self, tmp_path):
        # a scaled W5 clone stays a valid witness and runs through the same path
        w5 = builtin_witness("W5")
        custom = Witness("half5", tuple(x / 2 for x in w5.diagonal), w5.corner / 2)
        path = tmp_path / "half.json"
        path.write_text(witness_to_json(custom), encoding="utf-8")
        loaded = load_witness_file(path)
        val, (theta, _) = minimize_over_products(loaded)
        ref, (theta_ref, _) = minimize_over_products(w5)
        assert val == pytest.approx(ref / 2, abs=1e-12)
        assert theta == pytest.approx(theta_ref, abs=1e-6)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Witness("short", (1.0,), 0.0), ValueError, "Witness: diagonal needs at least 2 entries"),
    (lambda: expectation_value(SymmetricDensityMatrix(2, 3, np.eye(6) / 6), builtin_witness("W5")),
     ValueError, "expectation_value: witnesses act on qubit sectors"),
], ids=["one-entry-diagonal", "qutrit-state"])
def test_domain_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
