"""Symmetric-state construction and bipartite embedding."""

import copy
import dataclasses
import json
import math
import pickle
import re
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symppt import (
    Bipartition,
    BipartiteOperator,
    PureSymmetricState,
    SymmetricDensityMatrix,
    coherent_state,
    dicke_decomposition,
    dicke_labels,
    dicke_split_coefficient,
    embed_bipartite,
    embed_pure,
    embedding_matrix,
    ghz_state,
    maxmixed_pt,
    mix_with_identity,
    partial_transpose_a,
    state_from_json,
    state_to_json,
    symmetric_dimension,
)
from symppt import cli, symstate
from symppt.combx import SqrtRational, multinomial
from symppt.symstate import _frozen, _occupation_array, split_coefficients

from oracles import brute_split_overlaps, compositions, qubit_occupation, random_density, random_pure


class TestBipartition:
    def test_dimensions(self):
        bip = Bipartition(5, 2)
        assert (bip.dim_a, bip.dim_b, bip.dim) == (3, 4, 12)

    def test_qudit_dimensions(self):
        bip = Bipartition(4, 2, 3)
        assert (bip.dim_a, bip.dim_b) == (6, 6)

    def test_rejects_trivial_and_oversized_k(self):
        with pytest.raises(ValueError):
            Bipartition(5, 0)
        with pytest.raises(ValueError):
            Bipartition(5, 3)

    def test_rejects_non_integer_sizes(self):
        for args in [(4.5, 1), (5, 1.0), (5, 2, 2.0), (5, np.float64(2)), ("5", 2)]:
            with pytest.raises(ValueError, match=r"^Bipartition: n, k and d must be integers, got "):
                Bipartition(*args)

    def test_numpy_integer_sizes_are_stored_as_python_ints(self):
        bip = Bipartition(np.int64(5), np.int32(2), np.uint8(3))
        assert bip == Bipartition(5, 2, 3)
        assert {type(bip.n), type(bip.k), type(bip.d)} == {int}
        assert repr(bip) == "Bipartition(n=5, k=2, d=3)"


class TestLabels:
    def test_qubit_labels_are_excitations(self):
        assert dicke_labels(5, 2) == (0, 1, 2, 3, 4, 5)

    def test_qutrit_order(self):
        labs = dicke_labels(2, 3)
        assert labs == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))

    def test_label_count_matches_dimension(self):
        for n, d in [(5, 2), (4, 3), (3, 4), (2, 6)]:
            assert len(dicke_labels(n, d)) == symmetric_dimension(n, d)

    def test_occupations_equal_the_recursive_enumeration(self):
        for n in range(13):
            for d in range(2, 7):
                assert _occupation_array(n, d).tolist() == list(map(list, compositions(n, d))), (n, d)

    def test_labels_are_the_occupations_for_qudits_and_counts_for_qubits(self):
        for n in range(13):
            assert dicke_labels(n, 2) == tuple(range(n + 1))
            assert _occupation_array(n, 2).tolist() == [[n - alpha, alpha] for alpha in range(n + 1)]
            for d in range(3, 7):
                assert dicke_labels(n, d) == tuple(compositions(n, d))
                assert dicke_labels(n, d) is dicke_labels(n, d)

    def test_invalid_sizes_refused(self):
        for n, d in [(-1, 2), (-1, 3), (0, 0), (3, 0), (3, -1)]:
            with pytest.raises(ValueError, match=rf"^dicke_labels: invalid \(n={n}, d={d}\)$"):
                dicke_labels(n, d)

    def test_edge_sizes_keep_their_labels(self):
        assert dicke_labels(3, 1) == ((3,),)
        assert dicke_labels(0, 2) == (0,)

    def test_cached_arrays_are_read_only(self):
        # Every later table reads these caches; an in-place write must not corrupt them.
        for cached in (symstate._occupation_array(4, 3), symstate._binomials(6), symstate._binomials(60)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 7
            with pytest.raises(ValueError, match="read-only"):
                cached += cached
        assert symstate._occupation_array(4, 3)[0].tolist() == [4, 0, 0]
        assert symstate._binomials(6)[0, 0] == 1


class TestDickeDecomposition:
    def test_ground_state_factorizes(self):
        assert dicke_decomposition(Bipartition(5, 2), 0) == [
            (0, 0, dicke_split_coefficient(5, 2, 0, 0))
        ]

    def test_single_excitation_two_qubits(self):
        parts = dicke_decomposition(Bipartition(2, 1), 1)
        assert [(a, b) for a, b, _ in parts] == [(1, 0), (0, 1)]
        assert all(c.squared == Fraction(1, 2) for _, _, c in parts)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            dicke_decomposition(Bipartition(5, 2), 6)
        with pytest.raises(ValueError):
            dicke_decomposition(Bipartition(4, 2, 3), (3, 1, 1))

    def test_qubit_vs_string_enumeration(self):
        # with the qudit loop below this covers every d^n <= 10^4
        for n in range(2, 14):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                for alpha in range(n + 1):
                    got = {
                        (qubit_occupation(k, a), qubit_occupation(n - k, b)): c.squared
                        for a, b, c in dicke_decomposition(bip, alpha)
                    }
                    assert got == brute_split_overlaps(n, 2, k, qubit_occupation(n, alpha))

    def test_qudit_vs_string_enumeration(self):
        # every (d, n) with d^n <= 10^4, all k and all labels
        for d in range(3, 13):
            n = 2
            while d**n <= 10_000:
                for k in range(1, n // 2 + 1):
                    bip = Bipartition(n, k, d)
                    for label in dicke_labels(n, d):
                        got = {(a, b): c.squared for a, b, c in dicke_decomposition(bip, label)}
                        assert got == brute_split_overlaps(n, d, k, label), (d, n, k, label)
                n += 1

    def test_qudit_matches_qubit_route(self):
        # The qubit branch's coefficients against the qudit formula
        # sqrt( M(k; a) M(n-k; b) / M(n; m) ) on the occupations m = (n - alpha, alpha).
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                for alpha in range(n + 1):
                    m = (n - alpha, alpha)
                    expected = []
                    for beta in range(n - k + 1):
                        a, b = (k - alpha + beta, alpha - beta), (n - k - beta, beta)
                        if min(a) >= 0:
                            ratio = Fraction(multinomial(k, a) * multinomial(n - k, b), multinomial(n, m))
                            expected.append((alpha - beta, beta, SqrtRational(ratio)))
                    assert dicke_decomposition(Bipartition(n, k), alpha) == expected, (n, k, alpha)

    def test_coefficients_normalized(self):
        for d, n in [(3, 5), (4, 4)]:
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k, d)
                for label in dicke_labels(n, d):
                    total = sum(c.squared for _, _, c in dicke_decomposition(bip, label))
                    assert total == 1


class TestGhzState:
    def test_amplitudes(self):
        g = ghz_state(5)
        expected = np.zeros(6)
        expected[0] = 1 / math.sqrt(2)
        expected[5] = -1 / math.sqrt(2)
        assert np.allclose(g.amplitudes, expected)

    def test_two_qubits(self):
        g = ghz_state(2)
        assert np.allclose(g.amplitudes, [1 / math.sqrt(2), 0, -1 / math.sqrt(2)])

    def test_norm(self):
        assert np.linalg.norm(ghz_state(7).amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_aligned_phase(self):
        g = ghz_state(5, sign=+1)
        assert g.amplitudes[5].real == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            ghz_state(5, sign=2)


class TestCoherentState:
    def test_north_pole(self):
        psi = coherent_state(5, 0.0, 1.3)
        assert psi.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(psi.amplitudes[1:], 0)

    def test_south_pole(self):
        psi = coherent_state(5, math.pi, 0.0)
        assert abs(psi.amplitudes[5]) == pytest.approx(1.0, abs=1e-12)

    def test_equator(self):
        psi = coherent_state(5, math.pi / 2, 0.0)
        expected = np.array([math.sqrt(math.comb(5, a)) for a in range(6)]) / math.sqrt(32)
        assert np.allclose(psi.amplitudes, expected, atol=1e-14)

    def test_binomial_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            psi = coherent_state(n, theta, phi)
            c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
            probs = np.array([math.comb(n, a) * c2 ** (n - a) * s2**a for a in range(n + 1)])
            assert np.allclose(np.abs(psi.amplitudes) ** 2, probs, atol=1e-12)
            assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1) < 1e-12


class TestMixWithIdentity:
    def test_maximally_mixed_limit(self):
        rho = mix_with_identity(5, 1.0, ghz_state(5))
        assert np.allclose(rho.matrix, np.eye(6) / 6)

    def test_pure_limit(self):
        g = ghz_state(5)
        rho = mix_with_identity(5, 0.0, g)
        assert np.allclose(rho.matrix, np.outer(g.amplitudes, g.amplitudes.conj()))

    def test_two_level_spectrum(self):
        p = float(Fraction(30, 31))
        rho = mix_with_identity(5, p, ghz_state(5))
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[-1] == pytest.approx(float(Fraction(6, 31)), abs=1e-14)
        assert np.allclose(w[:5], float(Fraction(5, 31)), atol=1e-14)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            mix_with_identity(5, 1.2, ghz_state(5))

    def test_array_of_p_stacks_the_mixtures(self):
        ps = np.array([0.0, 0.3, 0.97, 1.0])
        single = [mix_with_identity(5, p, ghz_state(5)).matrix for p in ps.tolist()]
        assert mix_with_identity(5, ps, ghz_state(5)).matrix.tobytes() == np.stack(single).tobytes()
        with pytest.raises(ValueError) as info:
            mix_with_identity(5, np.array([0.2, 1.5, 0.4]), ghz_state(5))
        assert str(info.value) == "mix_with_identity: p must lie in [0, 1], got 1.5"

    def test_empty_array_of_p_gives_an_empty_stack(self):
        # The PSD step tests every eigenvalue: an empty stack has none, and no minimum.
        rho = mix_with_identity(5, np.array([]), ghz_state(5))
        assert rho.matrix.shape == (0, 6, 6)
        assert rho.matrix.dtype == np.complex128 and not rho.matrix.flags.writeable


# Every k | n-k cut with d = 2, n <= 30; d = 3, n <= 9; d = 4, n <= 7.
TABLE_CUTS = [
    Bipartition(n, k, d)
    for d, nmax in ((2, 30), (3, 9), (4, 7))
    for n in range(2, nmax + 1)
    for k in range(1, n // 2 + 1)
]


class TestSplitCoefficients:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(bip=st.sampled_from(TABLE_CUTS))
    @example(bip=Bipartition(56, 28))
    @example(bip=Bipartition(57, 28))
    @example(bip=Bipartition(57, 25))
    @example(bip=Bipartition(11, 5, 4))
    @example(bip=Bipartition(15, 7, 3))
    def test_table_and_embedding_equal_exact_decomposition(self, bip):
        # dicke_decomposition is checked against string enumeration above;
        # the float table and its scatter, the embedding, must hold float()
        # of its exact coefficients, bit for bit.
        table = split_coefficients(bip)
        v = embedding_matrix(bip.n, bip.k, bip.d)
        row = {a: i for i, a in enumerate(dicke_labels(bip.k, bip.d))}
        col = {b: j for j, b in enumerate(dicke_labels(bip.n - bip.k, bip.d))}
        assert table.shape == (bip.dim_a, bip.dim_b)
        assert np.count_nonzero(v) == bip.dim
        for m, label in enumerate(dicke_labels(bip.n, bip.d)):
            for a, b, coeff in dicke_decomposition(bip, label):
                assert table[row[a], col[b]] == float(coeff), (bip, a, b)
                assert v[row[a] * bip.dim_b + col[b], m] == float(coeff), (bip, a, b)

    def test_binomial_table_dtype_switches_at_two_to_the_53(self):
        # C(56, 28) < 2**53 < C(57, 28).  At (57, 25) a float64 table would round 280 of the
        # 858 entries differently; the explicit examples above cover both sides.
        assert symstate._binomials(56).dtype == np.float64
        assert symstate._binomials(57).dtype == object


class TestEmbedding:
    def test_embedding_is_isometry(self):
        for n, k, d in [(5, 2, 2), (8, 3, 2), (4, 2, 3), (3, 1, 4)]:
            v = embedding_matrix(n, k, d)
            assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-14)

    def test_trace_preserved_on_random_mixtures(self):
        rng = np.random.default_rng(11)
        for n, k in [(4, 2), (7, 3), (10, 5)]:
            rho = random_density(n, 2, rng)
            emb = embed_bipartite(rho, Bipartition(n, k))
            assert np.trace(emb.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_psd_and_hermitian_up_to_n14(self):
        rng = np.random.default_rng(13)
        for n in range(2, 15):
            for k in range(1, n // 2 + 1):
                emb = embed_bipartite(random_density(n, 2, rng), Bipartition(n, k))
                mat = emb.matrix
                assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
                assert np.linalg.eigvalsh(mat).min() > -1e-10
                assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_embeds_to_rank_one(self):
        rng = np.random.default_rng(17)
        for n, k in [(5, 2), (9, 4)]:
            psi = random_pure(n, 2, rng)
            emb = embed_bipartite(psi.density(), Bipartition(n, k))
            w = np.linalg.eigvalsh(emb.matrix)
            assert w[-1] == pytest.approx(1.0, abs=1e-10)
            assert abs(w[-2]) < 1e-10

    def test_ground_dicke_embeds_to_product_projector(self):
        amps = np.zeros(6)
        amps[0] = 1.0
        psi = PureSymmetricState(5, 2, amps)
        emb = embed_bipartite(psi.density(), Bipartition(5, 2))
        expected = np.zeros((12, 12))
        expected[0, 0] = 1.0  # (a=0, b=0) cell in row-major order
        assert np.allclose(emb.matrix, expected, atol=1e-15)

    def test_embed_pure_matches_matrix_route(self):
        rng = np.random.default_rng(19)
        psi = random_pure(7, 2, rng)
        bip = Bipartition(7, 3)
        vec = embed_pure(psi, bip)
        emb = embed_bipartite(psi.density(), bip)
        assert np.allclose(np.outer(vec, vec.conj()), emb.matrix, atol=1e-13)

    def test_dimension_mismatch_rejected(self):
        rho = mix_with_identity(5, 0.5, ghz_state(5))
        with pytest.raises(ValueError):
            embed_bipartite(rho, Bipartition(6, 2))


class TestValidation:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureSymmetricState(2, 2, np.array([1.0, 1.0, 0.0]))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            SymmetricDensityMatrix(2, 2, np.diag([0.9, 0.4, -0.3]))
        with pytest.raises(ValueError):
            SymmetricDensityMatrix(2, 2, np.diag([0.5, 0.3, 0.3]))


def diagonal_states(diagonal, stack: bool) -> np.ndarray:
    """np.diag(diagonal), or it in the middle of a stack of two maximally mixed states."""
    mat = np.diag(diagonal).astype(complex)
    if not stack:
        return mat
    mixed = np.eye(len(diagonal), dtype=complex) / len(diagonal)
    return np.stack([mixed, mat, mixed])


NORM_TOL, PSD_TOL = 1e-12, 1e-10  # symstate's values, written out: a looser constant fails here


class TestDensityBoundaries:
    """The trace and PSD checks accept an input half their tolerance past the bound and refuse
    one twice past it, for one matrix and for a stack."""

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_trace(self, stack, sign):
        half = diagonal_states([0.5, 0.5 + sign * 0.5 * NORM_TOL, 0.0], stack)
        assert SymmetricDensityMatrix(2, 2, half).matrix.tobytes() == half.tobytes()
        twice = diagonal_states([0.5, 0.5 + sign * 2 * NORM_TOL, 0.0], stack)
        with pytest.raises(ValueError) as info:
            SymmetricDensityMatrix(2, 2, twice)
        assert re.fullmatch(rf"SymmetricDensityMatrix: trace \S+ deviates from 1 beyond {NORM_TOL}", str(info.value))

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    def test_negative_eigenvalue(self, stack):
        def with_eigenvalue(lam):
            return diagonal_states([0.5 - lam, 0.5, lam], stack)

        half = with_eigenvalue(-0.5 * PSD_TOL)
        assert SymmetricDensityMatrix(2, 2, half).matrix.tobytes() == half.tobytes()
        with pytest.raises(ValueError) as info:
            SymmetricDensityMatrix(2, 2, with_eigenvalue(-2 * PSD_TOL))
        assert str(info.value) == f"SymmetricDensityMatrix: negative eigenvalue beyond {PSD_TOL}"

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    def test_imaginary_diagonal_counts_against_the_trace(self, stack):
        # The real part of the trace is 0.5 NORM_TOL past 1, and each diagonal entry carries an
        # imaginary part of 0.45 HERM_TOL: Hermitian within HERM_TOL, but |trace - 1| = 1.44e-12.
        # The stored matrix, (M + M^H)/2, has a real diagonal: its trace alone would pass.
        mats = diagonal_states([0.5, 0.5 + 0.5 * NORM_TOL, 0.0], stack)
        (mats[1] if stack else mats)[np.diag_indices(3)] += 0.45e-12j
        with pytest.raises(ValueError) as info:
            SymmetricDensityMatrix(2, 2, mats)
        assert re.fullmatch(rf"SymmetricDensityMatrix: trace \S+ deviates from 1 beyond {NORM_TOL}", str(info.value))
        stored = np.diag([0.5, 0.5 + 0.5 * NORM_TOL, 0.0]).astype(complex)
        assert abs(np.trace(stored) - 1) <= NORM_TOL


class TestReadOnlyMatrices:
    """A container stores a read-only matrix, so what its constructor checked stays true."""

    CONTAINERS = {
        "density": (lambda mat: SymmetricDensityMatrix(2, 2, mat), np.eye(3, dtype=complex) / 3),
        "operator": (lambda mat: BipartiteOperator(Bipartition(2, 1), mat), np.eye(4)),
    }

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("kind", CONTAINERS)
    def test_in_place_write_raises(self, kind, stack):
        build, mat = self.CONTAINERS[kind]
        mat = np.stack([mat] * 3) if stack else mat.copy()
        container = build(mat)
        assert not container.matrix.flags.writeable
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            container.matrix[..., 0, 1] = 0.5
        with pytest.raises(ValueError, match="^output array is read-only$"):
            container.matrix *= 2
        # The caller's array is copied once and stays the caller's: writeable, apart.
        before = mat.tobytes()
        mat[..., 0, 0] = 7
        assert container.matrix.tobytes() == before

    @pytest.mark.parametrize("kind", CONTAINERS)
    def test_copies_rebuild_through_the_constructor(self, kind):
        build, mat = self.CONTAINERS[kind]
        mat = mat.copy()
        mat[1, 0] = 0.5e-12
        container = build(mat)
        assert container.matrix[0, 1] == container.matrix[1, 0] == 0.25e-12
        for twin in (copy.copy(container), copy.deepcopy(container), pickle.loads(pickle.dumps(container))):
            assert type(twin) is type(container)
            assert not twin.matrix.flags.writeable and twin.matrix.tobytes() == container.matrix.tobytes()
        unpickled = pickle.loads(pickle.dumps(container))
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            unpickled.matrix[0, 1] = 1.0

    def test_amplitudes_are_read_only(self):
        amps = np.array([1, 1j, 0]) / math.sqrt(2)
        psi = PureSymmetricState(2, 2, amps)
        before = psi.amplitudes.tobytes()
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            psi.amplitudes[:] = [5, 5, 5]
        with pytest.raises(ValueError, match="^output array is read-only$"):
            psi.amplitudes *= 5
        amps[0] = 5  # the caller's array was copied
        assert psi.amplitudes.tobytes() == before
        for twin in (copy.copy(psi), copy.deepcopy(psi), pickle.loads(pickle.dumps(psi))):
            assert type(twin) is PureSymmetricState
            assert not twin.amplitudes.flags.writeable and twin.amplitudes.tobytes() == before

    def test_converted_input_is_not_copied_again(self):
        # The dtype conversion already made a private array, which is stored as it is: building
        # the operator holds it and the Hermitian check's difference, two float64 dim^2 arrays,
        # where a second copy would make three.
        bip = Bipartition(60, 30)
        mat = np.eye(bip.dim, dtype=np.int8)
        tracemalloc.start()
        try:
            op = BipartiteOperator(bip, mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrix.dtype == np.float64 and not op.matrix.flags.writeable
        assert 2 * bip.dim**2 * 8 <= peak < 2.5 * bip.dim**2 * 8

    def test_verdict_is_not_shown_or_compared(self):
        # No Hermitian verdict is kept: the stored matrix is exactly Hermitian, so there is none.
        mat = np.eye(4)
        mat[1, 0] = 0.5e-12
        within = BipartiteOperator(Bipartition(2, 1), mat)
        assert [f.name for f in dataclasses.fields(within)] == ["bipartition", "matrix"]
        assert vars(within).keys() == {"bipartition", "matrix"}
        state = SymmetricDensityMatrix(2, 2, np.eye(3, dtype=complex) / 3)
        assert vars(state).keys() == {"n", "d", "matrix"}


class TestStorageRule:
    """A container keeps an array only if it is read-only and owns its memory, else a read-only copy."""

    CONTAINERS = {  # uniform entries, exact in float32: a broadcast row or a float32 copy holds the same values
        "amplitudes": (lambda a: PureSymmetricState(3, 2, a).amplitudes, np.full(4, 0.5, dtype=complex)),
        "density": (lambda a: SymmetricDensityMatrix(3, 2, a).matrix, np.full((4, 4), 0.25, dtype=complex)),
        "operator": (lambda a: BipartiteOperator(Bipartition(2, 1), a).matrix, np.full((4, 4), 0.25)),
    }
    INPUTS = {  # form: (kept, the input made from a fresh writeable array a and the container's build)
        "writeable": (False, lambda a, build: a),
        "read-only": (True, lambda a, build: _frozen(a)),
        "read-only-fortran": (True, lambda a, build: _frozen(np.asfortranarray(a))),
        "view-into-a-writeable-stack": (False, lambda a, build: np.stack([a, a])[1]),
        "read-only-view-of-a-writeable-array": (False, lambda a, build: _frozen(a.view())),
        "broadcast": (False, lambda a, build: np.broadcast_to(a[:1], a.shape)),
        "read-only-view-of-a-read-only-array": (False, lambda a, build: _frozen(a).view()),
        "read-only-slice-of-a-stored-stack": (False, lambda a, build: build(np.stack([a, a]) if a.ndim == 2 else a)[:]),
        "read-only-other-dtype": (False, lambda a, build: _frozen(a.real.astype(np.float32))),
    }

    @pytest.mark.parametrize("form", INPUTS)
    @pytest.mark.parametrize("kind", CONTAINERS)
    def test_inputs(self, kind, form):
        (build, a), (kept, make) = self.CONTAINERS[kind], self.INPUTS[form]
        given = make(a := a.copy(), build)
        flags, stored = repr(given.flags), build(given)
        assert (stored is given) == kept and repr(given.flags) == flags
        if not kept:  # np.shares_memory is exact: no later write through a or given reaches the copy
            assert not stored.flags.writeable and stored.base is None and (stored == given).all()
            assert not np.shares_memory(stored, a) and not np.shares_memory(stored, given)

    HANDOVERS = {  # each library producer, fed only by the library
        "ghz_state": lambda: ghz_state(3),
        "coherent_state": lambda: coherent_state(3, 0.3, 0.2),
        "density": lambda: ghz_state(3).density(),
        "mix_with_identity": lambda: mix_with_identity(3, [0.2, 0.5], ghz_state(3)),
        "embed_bipartite": lambda: embed_bipartite(ghz_state(5).density(), Bipartition(5, 2)),
        "maxmixed_pt": lambda: maxmixed_pt(Bipartition(5, 2)),
        "partial_transpose_a-single": lambda: partial_transpose_a(maxmixed_pt(Bipartition(5, 2))),
        "partial_transpose_a-stack": lambda: partial_transpose_a(
            embed_bipartite(mix_with_identity(5, [0.2, 0.5], ghz_state(5)), Bipartition(5, 2))),
        "scan": lambda: cli.main("scan --witness W9 --k 4 --p-from 0.99 --p-to 1 --steps 20".split()),
    }

    @pytest.mark.parametrize("produce", HANDOVERS.values(), ids=HANDOVERS)
    def test_handovers(self, monkeypatch, produce):
        owned, handed = symstate._owned, []  # (the array a container is handed, the array it keeps)
        monkeypatch.setattr(symstate, "_owned", lambda *args: handed.append((args[0], owned(*args))) or handed[-1][1])
        produce()
        assert handed and all(kept is raw for raw, kept in handed)


@contextmanager
def int_max_str_digits(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestUnprintableDimension:
    """A sector dimension with more digits than Python prints is refused before it is built."""

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_refused_without_building_the_dimension(self, monkeypatch, n):
        def no_dimension(*args):
            raise AssertionError("the sector dimension was built")

        monkeypatch.setattr(symstate, "symmetric_dimension", no_dimension)
        text = json.dumps({"n": n, "d": n, "amplitudes": []})
        with int_max_str_digits(4300), pytest.raises(ValueError) as info:
            start = time.perf_counter()
            state_from_json(text)
        assert time.perf_counter() - start < 0.5
        assert str(info.value) == (
            f"PureSymmetricState: dimension for (n={n}, d={n}) has more than 4300 digits, got shape (0,)"
        )

    def test_printable_dimensions_keep_their_message(self):
        with pytest.raises(ValueError) as info:
            PureSymmetricState(2, 2, [1])
        assert str(info.value) == "PureSymmetricState: expected 3 amplitudes for (n=2, d=2), got shape (1,)"
        with int_max_str_digits(4300), pytest.raises(ValueError) as info:
            PureSymmetricState(300, 300, [[1, 0]])
        assert str(info.value) == (
            f"PureSymmetricState: expected {math.comb(599, 299)} amplitudes for (n=300, d=300), "
            "got shape (1, 2)"
        )

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_containers_refused_without_building_the_dimension(self, monkeypatch, n):
        def no_dimension(*args):
            raise AssertionError("the sector dimension was built")

        monkeypatch.setattr(symstate, "symmetric_dimension", no_dimension)
        cases = [
            (lambda: SymmetricDensityMatrix(n, n, np.eye(2)),
             f"SymmetricDensityMatrix: dimension for (n={n}, d={n})"),
            (lambda: BipartiteOperator(Bipartition(n, 1, n), np.eye(2)),
             f"BipartiteOperator: dimension for Bipartition(n={n}, k=1, d={n})"),
        ]
        for build, space in cases:
            with int_max_str_digits(4300), pytest.raises(ValueError) as info:
                start = time.perf_counter()
                build()
            assert time.perf_counter() - start < 0.01
            assert str(info.value) == f"{space} has more than 4300 digits, got shape (2, 2)"

    def test_numpy_integer_sizes_take_the_same_refusal(self, monkeypatch):
        def no_dimension(*args):
            raise AssertionError("the sector dimension was built")

        monkeypatch.setattr(symstate, "symmetric_dimension", no_dimension)
        n = np.int64(10**5)
        bip = Bipartition(n, np.int64(1), n)
        cases = [
            (lambda: SymmetricDensityMatrix(n, n, np.eye(2)),
             f"SymmetricDensityMatrix: dimension for (n={n}, d={n})", (2, 2)),
            (lambda: BipartiteOperator(bip, np.eye(2)), f"BipartiteOperator: dimension for {bip}", (2, 2)),
            (lambda: PureSymmetricState(n, n, [1]), f"PureSymmetricState: dimension for (n={n}, d={n})", (1,)),
        ]
        for build, space, shape in cases:
            with int_max_str_digits(4300), pytest.raises(ValueError) as info:
                start = time.perf_counter()
                build()
            assert time.perf_counter() - start < 0.01
            assert str(info.value) == f"{space} has more than 4300 digits, got shape {shape}"

    @pytest.mark.parametrize("n, d, error, message", [
        (2.0, 2, TypeError, "'float' object cannot be interpreted as an integer"),
        (2, 2.5, TypeError, "'float' object cannot be interpreted as an integer"),
        (np.float64(2), 2, TypeError, "'numpy.float64' object cannot be interpreted as an integer"),
        (-1.5, 2, ValueError, "symmetric_dimension: invalid (n=-1.5, d=2)"),
        (2, 0.5, ValueError, "symmetric_dimension: invalid (n=2, d=0.5)"),
    ])
    def test_non_integer_sizes_keep_their_errors(self, n, d, error, message):
        with pytest.raises(error) as info:
            SymmetricDensityMatrix(n, d, np.eye(3) / 3)
        assert str(info.value) == message

    def test_bipartite_product_past_the_limit(self):
        # dim_a = dim_b = 10^320 + 1 have 321 digits each; their product has 641.
        bip = Bipartition(2 * 10**320, 10**320)
        with int_max_str_digits(640):
            assert len(str(bip.dim_a)) == len(str(bip.dim_b)) == 321
            with pytest.raises(ValueError) as info:
                BipartiteOperator(bip, np.eye(2))
            message = str(info.value)
            with pytest.raises(ValueError, match=f"^BipartiteOperator: expected {(10**320 - 1) ** 2}x"):
                BipartiteOperator(Bipartition(2 * 10**320 - 4, 10**320 - 2), np.eye(2))  # 640 digits
        assert message == f"BipartiteOperator: dimension for {bip} has more than 640 digits, got shape (2, 2)"

    def test_print_limit_boundary(self):
        with int_max_str_digits(640):
            with pytest.raises(ValueError, match=f"^PureSymmetricState: expected {10**640 - 1} amplitudes"):
                PureSymmetricState(10**640 - 2, 2, [1])  # dimension 10^640 - 1: 640 digits
            with pytest.raises(ValueError) as info:
                PureSymmetricState(10**640 - 1, 2, [1])  # dimension 10^640: 641 digits
        assert str(info.value).endswith(", d=2) has more than 640 digits, got shape (1,)")


def _nonfinite_cases(dtype):
    """(id, dtype, where, value, stack) for nan and inf entries placed Hermitian-symmetrically,
    so that no finite difference gives them away; a stack has them in its middle matrix only."""
    values = [math.nan, math.inf, -math.inf]
    pairs = values + ([complex(1, math.inf), complex(math.nan, 0.5)] if dtype is complex else [])
    for where, vals in (("all", values), ("diagonal", values), ("pair", pairs)):
        for value in vals:
            for stack in (False, True):
                case = f"{dtype.__name__}-{where}-{value}-{'stack' if stack else 'single'}"
                yield pytest.param(dtype, where, value, stack, id=case)


NONFINITE_CASES = [*_nonfinite_cases(float), *_nonfinite_cases(complex)]


def _with_nonfinite(valid: np.ndarray, where: str, value, stack: bool) -> np.ndarray:
    mats = np.stack([valid] * 3)
    mat = mats[1]
    if where == "all":
        mat[...] = value
    elif where == "diagonal":
        mat[0, 0] = value
    else:
        mat[0, 1], mat[1, 0] = value, np.conj(value)
    return mats if stack else mat


@pytest.mark.parametrize(
    "dtype,where,value,stack", [case for case in NONFINITE_CASES if np.isinf(case.values[2])]
)
def test_inf_entries_raise_value_error_with_warnings_as_errors(dtype, where, value, stack):
    """inf - inf inside the Hermitian check is nan, which fails it with no RuntimeWarning."""
    cases = [
        (SymmetricDensityMatrix, (2, 2), np.eye(3, dtype=dtype) / 3),
        (BipartiteOperator, (Bipartition(3, 1),), np.eye(6, dtype=dtype)),
    ]
    for container, args, valid in cases:
        with pytest.raises(ValueError) as info:
            container(*args, _with_nonfinite(valid, where, value, stack))
        assert str(info.value) == f"{container.__name__}: matrix is not Hermitian within 1e-12"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteEntries:
    """nan and inf entries fail both containers with the non-Hermitian message."""

    def test_case_count(self):
        assert len(NONFINITE_CASES) == 18 + 22

    @pytest.mark.parametrize("dtype,where,value,stack", NONFINITE_CASES)
    def test_density_matrix(self, dtype, where, value, stack):
        mats = _with_nonfinite(np.eye(3, dtype=dtype) / 3, where, value, stack)
        with pytest.raises(ValueError) as info:
            SymmetricDensityMatrix(2, 2, mats)
        assert str(info.value) == "SymmetricDensityMatrix: matrix is not Hermitian within 1e-12"

    @pytest.mark.parametrize("dtype,where,value,stack", NONFINITE_CASES)
    def test_bipartite_operator(self, dtype, where, value, stack):
        bip = Bipartition(3, 1)
        mats = _with_nonfinite(np.eye(bip.dim, dtype=dtype), where, value, stack)
        with pytest.raises(ValueError) as info:
            BipartiteOperator(bip, mats)
        assert str(info.value) == "BipartiteOperator: matrix is not Hermitian within 1e-12"


class TestBipartiteOperator:
    """Real input stays real (float64), complex input is complex128."""

    @pytest.mark.parametrize("dtype", [bool, int, float, np.float32])
    def test_real_input_is_float64(self, dtype):
        bip = Bipartition(3, 1)
        mat = np.eye(bip.dim, dtype=dtype)
        op = BipartiteOperator(bip, mat)
        assert op.matrix.dtype == np.float64
        assert np.array_equal(op.matrix, np.eye(bip.dim))

    def test_real_list_input_is_float64(self):
        op = BipartiteOperator(Bipartition(2, 1), [[int(i == j) for j in range(4)] for i in range(4)])
        assert op.matrix.dtype == np.float64

    @pytest.mark.parametrize("dtype", [complex, np.complex64])
    def test_complex_input_is_complex128(self, dtype):
        bip = Bipartition(3, 1)
        op = BipartiteOperator(bip, np.eye(bip.dim, dtype=dtype))
        assert op.matrix.dtype == np.complex128

    def test_strings_rejected(self):
        bip = Bipartition(2, 1)
        with pytest.raises(ValueError):
            BipartiteOperator(bip, np.full((bip.dim, bip.dim), "x"))

    def test_transposed_uniform_state_is_real(self):
        for n, k, d in [(5, 2, 2), (6, 3, 2), (4, 2, 3)]:
            assert maxmixed_pt(Bipartition(n, k, d)).matrix.dtype == np.float64

    @pytest.mark.parametrize("offset", [5e-13, 1e-12, 2e-12])
    def test_real_check_equals_check_of_complex_embedding(self, offset):
        mat = np.eye(6)
        mat[1, 0] = offset
        outcomes = []
        for m in (mat, mat.astype(complex)):
            try:
                BipartiteOperator(Bipartition(3, 1), m)
                outcomes.append("ok")
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == "ok") == (offset <= 1e-12)


class TestStackedChecks:
    """A stack is checked as a whole: one bad matrix in the middle fails it."""

    def test_density_not_hermitian_mid_stack(self):
        mats = np.stack([mix_with_identity(4, p, ghz_state(4)).matrix for p in (0.1, 0.5, 0.9)])
        SymmetricDensityMatrix(4, 2, mats)
        mats[1, 0, 4] += 1e-9
        with pytest.raises(ValueError, match="SymmetricDensityMatrix: matrix is not Hermitian"):
            SymmetricDensityMatrix(4, 2, mats)

    def test_density_trace_and_sign_mid_stack(self):
        mats = np.stack([np.eye(3, dtype=complex) / 3] * 3)
        mats[1] = np.diag([0.5, 0.3, 0.3])
        with pytest.raises(ValueError, match="trace"):
            SymmetricDensityMatrix(2, 2, mats)
        mats[1] = np.diag([0.9, 0.4, -0.3])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            SymmetricDensityMatrix(2, 2, mats)

    def test_operator_not_hermitian_mid_stack(self):
        mats = np.stack([np.eye(6, dtype=complex)] * 4)
        BipartiteOperator(Bipartition(3, 1), mats)
        mats[2, 1, 0] = 1e-11
        with pytest.raises(ValueError, match="BipartiteOperator: matrix is not Hermitian"):
            BipartiteOperator(Bipartition(3, 1), mats)

    @pytest.mark.parametrize("shape", [(6,), (2, 6, 5), (2, 2, 6, 6)])
    def test_shape_is_one_matrix_or_one_stack(self, shape):
        with pytest.raises(ValueError, match=r"BipartiteOperator: expected 6x6"):
            BipartiteOperator(Bipartition(3, 1), np.zeros(shape))
        with pytest.raises(ValueError, match=r"SymmetricDensityMatrix: expected 6x6"):
            SymmetricDensityMatrix(5, 2, np.zeros(shape))


class TestExactlyHermitianInput:
    """A container stores its input if it is exactly Hermitian and (M + M^H)/2 if it is Hermitian
    only within HERM_TOL; the PSD step of SymmetricDensityMatrix hands eigvalsh that stored matrix."""

    def test_verdicts(self):
        mats = mix_with_identity(5, np.linspace(0.0, 1.0, 7), ghz_state(5, sign=+1)).matrix.copy()
        assert symstate._hermitian(mats, "") is mats
        pt = maxmixed_pt(Bipartition(5, 2)).matrix
        assert symstate._hermitian(pt, "") is pt
        mats[3, 0, 5] += 5e-13
        within = symstate._hermitian(mats, "")
        assert within.tobytes() == ((mats + mats.conj().swapaxes(-1, -2)) / 2).tobytes()
        assert not within.flags.writeable and mats.flags.writeable
        mats[3, 0, 5] += 1e-12
        with pytest.raises(ValueError, match=r"^who: matrix is not Hermitian within 1e-12$"):
            symstate._hermitian(mats, "who")

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_hermitian_part_is_the_symmetrized_matrix_bit_for_bit(self, dtype):
        # Parts drawn from {0, 1, -1}, mirrored into a Hermitian matrix, then each zero given a
        # random sign: (-0.0 + 0.0) / 2 and complex division by 2 can turn -0.0 to +0.0.  An exactly
        # Hermitian matrix is stored as it is, -0.0 and all; one off by 0.5 HERM_TOL in one entry
        # is stored as (M + M^H)/2, bit for bit.
        rng = np.random.default_rng(3)
        bip = Bipartition(2, 1)
        symmetrizing_changes_bits = set()
        for _ in range(500):
            mat = rng.integers(-1, 2, (4, 4)).astype(dtype)
            if dtype is complex:
                mat += 1j * rng.integers(-1, 2, (4, 4))
            mat = np.triu(mat, 1) + np.triu(mat, 1).conj().T + np.diag(mat.diagonal().real)
            parts = mat.view(float)
            zeros = parts == 0
            parts[zeros] = np.where(rng.random(zeros.sum()) < 0.8, 0.0, -0.0)
            mat.flags.writeable = False
            assert BipartiteOperator(bip, mat).matrix is mat
            symmetrizing_changes_bits.add(((mat + mat.conj().T) / 2).tobytes() != mat.tobytes())
            within = mat.copy()
            within[1, 0] += 0.5e-12
            assert BipartiteOperator(bip, within).matrix.tobytes() == ((within + within.conj().T) / 2).tobytes()
        assert symmetrizing_changes_bits == {True, False}

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "within-tolerance"])
    def test_eigvalsh_sees_the_symmetrized_stack(self, monkeypatch, perturbed):
        mats = mix_with_identity(6, np.linspace(0.0, 1.0, 9), ghz_state(6, sign=+1)).matrix.copy()
        if perturbed:
            mats[:, 0, 1] += 5e-13
        herm = (mats + mats.conj().swapaxes(-1, -2)) / 2
        assert (herm.tobytes() == mats.tobytes()) is not perturbed
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            seen.append(a)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        state = SymmetricDensityMatrix(6, 2, mats)
        assert len(seen) == 1 and seen[0] is state.matrix
        assert state.matrix.tobytes() == herm.tobytes()


class TestJson:
    def test_wire_format(self):
        import json

        psi = ghz_state(2)
        data = json.loads(state_to_json(psi))
        assert set(data) == {"n", "d", "amplitudes"}
        assert data["n"] == 2 and data["d"] == 2
        assert data["amplitudes"][0] == [1 / math.sqrt(2), 0.0]
        assert data["amplitudes"][2] == [-1 / math.sqrt(2), 0.0]

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        psi = random_pure(6, 2, rng)
        again = state_from_json(state_to_json(psi))
        assert (again.n, again.d) == (6, 2)
        assert np.allclose(again.amplitudes, psi.amplitudes)

    @settings(derandomize=True, max_examples=200)
    @given(data=st.data(), n=st.integers(1, 6), d=st.integers(2, 4))
    def test_round_trip_is_bitwise(self, data, n, d):
        dim = symmetric_dimension(n, d)
        parts = st.floats(-1, 1, allow_nan=False)
        amps = np.array(data.draw(st.lists(parts, min_size=dim, max_size=dim)), dtype=complex)
        amps += 1j * np.array(data.draw(st.lists(parts, min_size=dim, max_size=dim)))
        norm = np.linalg.norm(amps)
        assume(norm > 1e-3)
        psi = PureSymmetricState(n, d, amps / norm)
        again = state_from_json(state_to_json(psi))
        assert (again.n, again.d) == (n, d)
        assert again.amplitudes.tobytes() == psi.amplitudes.tobytes()

    def test_qudit_round_trip(self):
        rng = np.random.default_rng(29)
        psi = random_pure(3, 3, rng)
        again = state_from_json(state_to_json(psi))
        assert (again.n, again.d) == (3, 3)
        assert np.allclose(again.amplitudes, psi.amplitudes)

    def test_integer_amplitudes_load(self):
        again = state_from_json('{"n": 2, "d": 2, "amplitudes": [[0, 0], [1, 0], [0, 0]]}')
        assert (again.n, again.d) == (2, 2)
        assert again.amplitudes.tolist() == [0, 1, 0]


AMPS = '[[1, 0], [0, 0], [0, 0]]'
BAD_STATE_JSON = {
    "invalid_json": ("{", r"Expecting property name"),
    "array": ("[2, 2]", r"expected a JSON object, got list"),
    "missing_d": (f'{{"n": 2, "amplitudes": {AMPS}}}', r"missing key\(s\) d$"),
    "missing_all": ("{}", r"missing key\(s\) n, d, amplitudes$"),
    "float_n": (f'{{"n": 2.9, "d": 2, "amplitudes": {AMPS}}}', r"n must be a JSON integer, got 2.9$"),
    "integral_float_n": (f'{{"n": 2.0, "d": 2, "amplitudes": {AMPS}}}', r"n must be a JSON integer, got 2.0$"),
    "bool_n": (f'{{"n": true, "d": 2, "amplitudes": {AMPS}}}', r"n must be a JSON integer, got true$"),
    "string_d": (f'{{"n": 2, "d": "2", "amplitudes": {AMPS}}}', r'd must be a JSON integer, got "2"$'),
    "null_d": (f'{{"n": 2, "d": null, "amplitudes": {AMPS}}}', r"d must be a JSON integer, got null$"),
    "reported": (
        '{"n": 2.9, "d": "2", "amplitudes": [[true, 0], [0, 0], [0, false]]}',
        r"n must be a JSON integer, got 2.9$",
    ),
    "string_amplitudes": ('{"n": 2, "d": 2, "amplitudes": "100"}', r'amplitudes must be a JSON array, got "100"$'),
    "number_amplitudes": ('{"n": 2, "d": 2, "amplitudes": 1}', r"amplitudes must be a JSON array, got 1$"),
    "bool_part": ('{"n": 2, "d": 2, "amplitudes": [[true, 0], [0, 0], [0, false]]}',
                  r"pairs, got \[true, 0\]$"),
    "string_part": ('{"n": 2, "d": 2, "amplitudes": [[1, 0], ["0", 0], [0, 0]]}',
                    r'pairs, got \["0", 0\]$'),
    "null_part": ('{"n": 2, "d": 2, "amplitudes": [[1, null], [0, 0], [0, 0]]}',
                  r"pairs, got \[1, null\]$"),
    "single": ('{"n": 2, "d": 2, "amplitudes": [[1], [0, 0], [0, 0]]}', r"pairs, got \[1\]$"),
    "triple": ('{"n": 2, "d": 2, "amplitudes": [[1, 0, 0], [0, 0], [0, 0]]}',
               r"pairs, got \[1, 0, 0\]$"),
    "bare_number": ('{"n": 2, "d": 2, "amplitudes": [1, [0, 0], [0, 0]]}', r"pairs, got 1$"),
    "object_part": ('{"n": 2, "d": 2, "amplitudes": [{"re": 1, "im": 0}, [0, 0], [0, 0]]}',
                    r'pairs, got \{"re": 1, "im": 0\}$'),
    "past_double_range": (f'{{"n": 2, "d": 2, "amplitudes": [[1{"0" * 400}, 0], [0, 0], [0, 0]]}}',
                          r"state_from_json: int too large to convert to float$"),
    "nan_part": ('{"n": 2, "d": 2, "amplitudes": [[NaN, 0], [0, 0], [0, 0]]}', r"norm nan deviates from 1"),
    "infinite_part": ('{"n": 2, "d": 2, "amplitudes": [[Infinity, 0], [0, 0], [0, 0]]}',
                      r"norm inf deviates from 1"),
    "wrong_count": ('{"n": 2, "d": 2, "amplitudes": [[1, 0]]}', r"expected 3 amplitudes"),
    "negative_n": ('{"n": -1, "d": 2, "amplitudes": [[1, 0]]}', r"symmetric_dimension: invalid"),
    "nested_too_deep": ("[" * 100_000 + "]" * 100_000, r"^state_from_json: maximum recursion depth exceeded "),
}


def test_json_syntax_error_names_the_reader():
    with pytest.raises(ValueError) as info:
        state_from_json("")
    assert str(info.value) == "state_from_json: Expecting value: line 1 column 1 (char 0)"


@pytest.mark.parametrize("case", sorted(BAD_STATE_JSON))
def test_malformed_state_json_raises_value_error(case):
    text, message = BAD_STATE_JSON[case]
    with pytest.raises(ValueError, match=message):
        state_from_json(text)


@pytest.mark.parametrize("call, error, message", [
    (lambda: dicke_decomposition(Bipartition(4, 1), 1.5), ValueError,
     "dicke_decomposition: invalid qubit label 1.5 for n=4"),
    (lambda: ghz_state(1), ValueError, "ghz_state: need n >= 2, got 1"),
    (lambda: coherent_state(0, 0.0, 0.0), ValueError, "coherent_state: need n >= 1, got 0"),
    (lambda: mix_with_identity(5, 0.5, ghz_state(4)), ValueError, "mix_with_identity: state has n=4, expected 5"),
    (lambda: embed_pure(ghz_state(5), Bipartition(4, 1)), ValueError,
     "embed_pure: state (n=5, d=2) does not match Bipartition(n=4, k=1, d=2)"),
], ids=["qubit-label-not-integer", "ghz-n-1", "coherent-n-0", "mix-n-mismatch", "embed-pure-mismatch"])
def test_domain_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_bipartite_operator_dim():
    bip = Bipartition(5, 2)
    assert BipartiteOperator(bip, np.eye(bip.dim)).dim == 12
    assert BipartiteOperator(bip, np.stack([np.eye(bip.dim)] * 3)).dim == 12
