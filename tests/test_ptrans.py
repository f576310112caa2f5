"""Partial transposition, analytic spectra, ladder operators, bounds."""

import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symppt import (
    Bipartition,
    BipartiteOperator,
    Spectrum,
    dicke_labels,
    embed_bipartite,
    ghz_corner_eigencheck,
    ghz_state,
    ladder_operators,
    maxmixed_pt,
    maxmixed_pt_blocks,
    maxmixed_pt_eigenbasis,
    maxmixed_pt_spectrum,
    min_eigenvalue,
    mix_with_identity,
    mixture_min_eig_bound,
    partial_transpose_a,
    qudit_min_eig_check,
    sappt_threshold_qubits,
    schmidt_spectrum,
    symmetric_dimension,
)
from symppt.ptrans import DIM_CAP, RESIDUAL_TOL, _weight_stacks

from oracles import (
    compositions,
    ladder_lower_reference,
    min_eig_per_block,
    pt_shuffle,
    random_pure,
    refused_in_place,
    scatter_blocks,
    spectrum_entries_by_index,
    tilted_eigh,
    weight_blocks_per_pair,
)


def random_hermitian(bip, rng):
    mat = rng.standard_normal((bip.dim, bip.dim)) + 1j * rng.standard_normal((bip.dim, bip.dim))
    return BipartiteOperator(bip, (mat + mat.conj().T) / 2)


class TestPartialTranspose:
    def test_identity_fixed(self):
        bip = Bipartition(5, 2)
        op = BipartiteOperator(bip, np.eye(bip.dim, dtype=complex))
        assert np.array_equal(partial_transpose_a(op).matrix, op.matrix)

    def test_matches_index_shuffle_oracle(self):
        rng = np.random.default_rng(31)
        for n, k in [(5, 2), (7, 3), (4, 1)]:
            bip = Bipartition(n, k)
            op = random_hermitian(bip, rng)
            got = partial_transpose_a(op).matrix
            assert np.array_equal(got, pt_shuffle(op.matrix, bip.dim_a, bip.dim_b))

    def test_involution_exact(self):
        rng = np.random.default_rng(37)
        bip = Bipartition(6, 2)
        op = random_hermitian(bip, rng)
        assert np.array_equal(partial_transpose_a(partial_transpose_a(op)).matrix, op.matrix)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(41)
        bip = Bipartition(8, 3)
        op = random_hermitian(bip, rng)
        pt = partial_transpose_a(op).matrix
        assert np.trace(pt) == pytest.approx(np.trace(op.matrix), abs=1e-12)
        assert np.max(np.abs(pt - pt.conj().T)) == 0

    def test_linearity(self):
        rng = np.random.default_rng(43)
        bip = Bipartition(4, 2)
        a, b = random_hermitian(bip, rng), random_hermitian(bip, rng)
        combo = BipartiteOperator(bip, 0.3 * a.matrix + 0.7 * b.matrix)
        assert np.allclose(
            partial_transpose_a(combo).matrix,
            0.3 * partial_transpose_a(a).matrix + 0.7 * partial_transpose_a(b).matrix,
            atol=1e-15,
        )

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(47)
        bip = Bipartition(7, 3)
        ops = [random_hermitian(bip, rng) for _ in range(4)]
        stack = BipartiteOperator(bip, np.stack([op.matrix for op in ops]))
        got = partial_transpose_a(stack).matrix
        assert got.shape == stack.matrix.shape
        assert got.tobytes() == np.stack([partial_transpose_a(op).matrix for op in ops]).tobytes()
        assert not np.shares_memory(got, stack.matrix)
        assert not np.shares_memory(partial_transpose_a(ops[0]).matrix, ops[0].matrix)

    def test_fortran_ordered_input(self):
        # A read-only Fortran-ordered array that owns its memory is stored as it is; the
        # transpose is written through a view of a C-ordered array all the same.
        rng = np.random.default_rng(59)
        bip = Bipartition(5, 2)
        op = random_hermitian(bip, rng)
        fortran = np.asfortranarray(op.matrix)
        fortran.flags.writeable = False
        kept = BipartiteOperator(bip, fortran)
        got = partial_transpose_a(kept).matrix
        assert got.flags.c_contiguous
        assert got.tobytes() == partial_transpose_a(op).matrix.tobytes()


class TestMinEigenvalue:
    def test_scaled_identity(self):
        bip = Bipartition(5, 2)
        op = BipartiteOperator(bip, np.eye(12, dtype=complex) / 6)
        assert min_eigenvalue(op) == pytest.approx(1 / 6, abs=1e-15)

    def test_transposed_uniform_state(self):
        assert min_eigenvalue(maxmixed_pt(Bipartition(5, 2))) == pytest.approx(1 / 60, abs=1e-12)

    def test_ghz_mixture_closed_form(self):
        # p/60 - (1-p)/2 at p = 0.9
        rho = mix_with_identity(5, 0.9, ghz_state(5))
        pt = partial_transpose_a(embed_bipartite(rho, Bipartition(5, 2)))
        assert min_eigenvalue(pt) == pytest.approx(0.9 / 60 - 0.05, abs=1e-12)

    def test_rejects_non_hermitian(self):
        # min_eigenvalue has no Hermitian check of its own: its operator's matrix cannot change
        # after the constructor checked it, and the constructor refuses the changed matrix.
        bip = Bipartition(4, 2)
        op = BipartiteOperator(bip, np.eye(bip.dim, dtype=complex))

        def skew(mat):
            mat += 1e-6 * np.triu(np.ones_like(mat), 1)

        message = refused_in_place(op, skew, lambda mat: BipartiteOperator(bip, mat))
        assert message == "BipartiteOperator: matrix is not Hermitian within 1e-12"

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_hermitian_check_names_its_tolerance(self, kind):
        bip = Bipartition(5, 2)
        if kind == "real":
            op = maxmixed_pt(bip)
        else:
            op = partial_transpose_a(embed_bipartite(mix_with_identity(5, 0.9, ghz_state(5)), bip))
        assert op.matrix.dtype == (np.float64 if kind == "real" else np.complex128)
        mat = op.matrix.copy()
        mat[0, 1] += 5e-13
        min_eigenvalue(BipartiteOperator(bip, mat))

        def off_by_1e11(mat):
            mat[0, 1] += 1e-11

        message = refused_in_place(op, off_by_1e11, lambda mat: BipartiteOperator(bip, mat))
        assert message == "BipartiteOperator: matrix is not Hermitian within 1e-12"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["all", "diagonal", "pair"])
    def test_nonfinite_entries_refused(self, value, where):
        """numpy's eigh either fails to converge on these (LinAlgError) or returns nan: such a
        matrix cannot reach it, as no operator holds one."""
        op = maxmixed_pt(Bipartition(5, 2))

        def set_value(mat):
            if where == "all":
                mat[...] = value
            elif where == "diagonal":
                mat[0, 0] = value
            else:
                mat[0, 1] = mat[1, 0] = value

        message = refused_in_place(op, set_value, lambda mat: BipartiteOperator(op.bipartition, mat))
        assert message == "BipartiteOperator: matrix is not Hermitian within 1e-12"


def hermitian_stack(bip: Bipartition, count: int, seed: int) -> BipartiteOperator:
    rng = np.random.default_rng(seed)
    shape = (count, bip.dim, bip.dim)
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BipartiteOperator(bip, mats + mats.conj().swapaxes(-1, -2))


class TestStackedMinEigenvalues:
    @pytest.mark.parametrize("dim", [12, 30, 35])
    def test_bitwise_equal_to_one_at_a_time(self, dim):
        bip = {12: Bipartition(5, 2), 30: Bipartition(9, 4), 35: Bipartition(10, 4)}[dim]
        op = hermitian_stack(bip, 9, dim)
        stacked = min_eigenvalue(op)
        single = [min_eigenvalue(BipartiteOperator(op.bipartition, mat)) for mat in op.matrix]
        assert {type(value) for value in single} == {float}
        assert stacked.tobytes() == np.array(single).tobytes()

    def test_non_hermitian_matrix_mid_stack(self):
        op = hermitian_stack(Bipartition(5, 2), 5, 1)

        def skew(mats):
            mats[2, 0, 3] += 1e-9

        message = refused_in_place(op, skew, lambda mats: BipartiteOperator(op.bipartition, mats))
        assert message == "BipartiteOperator: matrix is not Hermitian within 1e-12"

    def test_bad_eigenpair_mid_stack(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            w, v = eigh(a, *args, **kwargs)
            v = v.copy()
            v[2, 0, 0] += 1e-6
            return w, v

        op = hermitian_stack(Bipartition(5, 2), 5, 2)
        min_eigenvalue(op)
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(RuntimeError, match="residual"):
            min_eigenvalue(op)

    def test_bad_eigenpair_of_scaled_stack(self, monkeypatch):
        # The residual bound scales with max |lam|, and so does the residual a tilted
        # unit eigenvector leaves: the tilt still fails the check at scale 1e8.
        op = hermitian_stack(Bipartition(5, 2), 5, 2)
        op = BipartiteOperator(op.bipartition, 1e8 * op.matrix)
        min_eigenvalue(op)
        monkeypatch.setattr(np.linalg, "eigh", tilted_eigh)
        with pytest.raises(RuntimeError, match=r"^min_eigenvalue: eigenpair residual \S+ exceeds \S+$"):
            min_eigenvalue(op)

    @pytest.mark.parametrize("n, k", [(9, 4), (20, 10), (40, 20)])
    def test_scaled_operator_passes_the_residual_check(self, n, k):
        # eigh's residual and error are of the order of eps * max |lam|, max |lam| <= 1e8 / 6
        # here: 1.2e-9 for (9, 4), over a bound of 1e-10 that ignored the operator's scale.
        bip = Bipartition(n, k)
        lam = min_eigenvalue(BipartiteOperator(bip, 1e8 * maxmixed_pt(bip).matrix))
        assert lam == pytest.approx(1e8 * float(maxmixed_pt_spectrum(bip).entries[0][0]), abs=1e-6)

    def test_residual_message_names_the_bound(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", tilted_eigh)
        with pytest.raises(RuntimeError) as info:
            min_eigenvalue(maxmixed_pt(Bipartition(9, 4)))
        assert re.fullmatch(r"min_eigenvalue: eigenpair residual \d\.\d\de-\d\d exceeds 1e-10", str(info.value))

    @pytest.mark.parametrize("residual", [RESIDUAL_TOL, math.nextafter(RESIDUAL_TOL, 1), math.nan],
                             ids=["at-bound", "just-over", "nan"])
    def test_residual_boundary(self, monkeypatch, residual):
        # The transposed uniform state has max |lam| < 1, so the bound is RESIDUAL_TOL itself;
        # a nan residual is over it.
        op = maxmixed_pt(Bipartition(9, 4))
        lam = min_eigenvalue(op)
        monkeypatch.setattr(np.linalg, "norm", lambda x, axis: np.full(x.shape[:-2], residual))
        if residual <= RESIDUAL_TOL:
            assert min_eigenvalue(op) == lam
        else:
            with pytest.raises(RuntimeError) as info:
                min_eigenvalue(op)
            assert str(info.value) == f"min_eigenvalue: eigenpair residual {residual:.3g} exceeds 1e-10"


def scan_chunk(n: int, k: int, count: int) -> BipartiteOperator:
    """A chunk of scan's stack, p U + (1 - p) G over count p of a 201-step grid on [0, 1]."""
    bip = Bipartition(n, k)
    ghz = partial_transpose_a(embed_bipartite(mix_with_identity(n, 0.0, ghz_state(n, sign=+1)), bip)).matrix
    p = np.linspace(0.0, 1.0, 201)[:count, None, None]
    return BipartiteOperator(bip, p * maxmixed_pt(bip).matrix + (1 - p) * ghz)


class TestExactlyHermitianInput:
    """eigh sees the operator's stored matrix as it is: the input if it is exactly Hermitian, and
    (M + M^H)/2, built once by the constructor, if it is Hermitian only within HERM_TOL."""

    CASES = {
        "random": lambda: hermitian_stack(Bipartition(9, 4), 9, 30),
        "scan-W5": lambda: scan_chunk(5, 2, 201),
        "scan-W9": lambda: scan_chunk(9, 4, 70),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "within-tolerance"])
    def test_eigh_sees_the_symmetrized_stack(self, monkeypatch, case, perturbed):
        op = self.CASES[case]()
        mats = op.matrix.copy()
        if perturbed:
            mats[:, 0, 1] += 5e-13
        herm = (mats + mats.conj().swapaxes(-1, -2)) / 2
        assert (herm.tobytes() == mats.tobytes()) is not perturbed
        op = BipartiteOperator(op.bipartition, mats)
        assert op.matrix.tobytes() == herm.tobytes()
        seen = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            seen.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        lams = min_eigenvalue(op)
        assert len(seen) == 1 and seen[0] is op.matrix
        assert lams.tobytes() == eigh(herm)[0][:, 0].tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_transpose_of_a_within_tolerance_operator(self, case):
        # The transpose of the stored (M + M^H)/2 is bitwise (P + P^H)/2 for P the transpose of M:
        # partial transposition permutes the entries and carries each pair (i, j), (j, i) to a pair.
        op = self.CASES[case]()
        bip, mats = op.bipartition, op.matrix.copy()
        mats[:, 0, 1] += 5e-13
        mats[:, -1, 2] -= 5e-13j if np.iscomplexobj(mats) else 5e-13
        pt = np.stack([pt_shuffle(mat, bip.dim_a, bip.dim_b) for mat in mats])
        expected = np.linalg.eigh((pt + pt.conj().swapaxes(-1, -2)) / 2)[0][:, 0]
        lams = min_eigenvalue(partial_transpose_a(BipartiteOperator(bip, mats)))
        assert lams.tobytes() == expected.tobytes()

    def test_exact_input_with_negative_zero_goes_to_eigh_as_it_is(self, monkeypatch):
        # (M + M^H)/2 can turn -0.0 to +0.0; an exactly Hermitian matrix is not symmetrized.
        mats = hermitian_stack(Bipartition(5, 2), 3, 4).matrix.copy()
        mats[:, 0, 1] = mats[:, 1, 0] = complex(-0.0, 0.0)
        assert ((mats + mats.conj().swapaxes(-1, -2)) / 2).tobytes() != mats.tobytes()
        mats.flags.writeable = False
        seen = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            seen.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        min_eigenvalue(BipartiteOperator(Bipartition(5, 2), mats))
        assert len(seen) == 1 and seen[0] is mats


class TestMaxmixedPt:
    def test_small_case_min_eig(self):
        assert min_eigenvalue(maxmixed_pt(Bipartition(2, 1))) == pytest.approx(1 / 6, abs=1e-14)

    def test_trace_one(self):
        assert np.trace(maxmixed_pt(Bipartition(5, 2)).matrix).real == pytest.approx(1.0, abs=1e-14)

    def test_direct_assembly_equals_transposed_embedding(self):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                uniform = mix_with_identity(n, 1.0, ghz_state(n))
                via_embed = partial_transpose_a(embed_bipartite(uniform, bip)).matrix
                assert np.max(np.abs(maxmixed_pt(bip).matrix - via_embed)) < 1e-14, (n, k)

    def test_qudit_direct_assembly_equals_transposed_embedding(self):
        from symppt import SymmetricDensityMatrix

        for n, d in [(3, 3), (4, 3), (3, 4)]:
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k, d)
                dim = symmetric_dimension(n, d)
                uniform = SymmetricDensityMatrix(n, d, np.eye(dim, dtype=complex) / dim)
                via_embed = partial_transpose_a(embed_bipartite(uniform, bip)).matrix
                assert np.max(np.abs(maxmixed_pt(bip).matrix - via_embed)) < 1e-14

    def test_blocks_reassemble_to_dense(self):
        # The embedding and the blocks read the same split_coefficients
        # table, so this checks the block assembly, not the coefficients.
        # Those have an independent chain in test_symstate: brute-force
        # strings -> dicke_decomposition -> split_coefficients.
        from symppt import SymmetricDensityMatrix

        for n, k, d in [(6, 3, 2), (4, 2, 3), (3, 1, 4), (6, 3, 3)]:
            bip = Bipartition(n, k, d)
            dim = symmetric_dimension(n, d)
            uniform = SymmetricDensityMatrix(n, d, np.eye(dim, dtype=complex) / dim)
            via_embed = partial_transpose_a(embed_bipartite(uniform, bip)).matrix
            inside = np.zeros((bip.dim, bip.dim), dtype=bool)
            for indices, block in maxmixed_pt_blocks(bip):
                idx = np.ix_(indices, indices)
                assert np.max(np.abs(block - via_embed[idx])) < 1e-14, (n, k, d)
                inside[idx] = True
            assert np.all(via_embed[~inside] == 0), (n, k, d)

    def test_block_sizes_cover_space(self):
        # (2, 1, 70) has label keys past int64: 3**70 > 2**63.
        cuts = [(5, 2, 2), (6, 3, 3), (5, 2, 4), (6, 3, 4), (9, 4, 4), (12, 2, 4), (2, 1, 70)]
        for n, k, d in cuts:
            bip = Bipartition(n, k, d)
            labels_a, labels_b = dicke_labels(k, d), dicke_labels(n - k, d)
            blocks = maxmixed_pt_blocks(bip)
            indices = [i for idx, _ in blocks for i in idx]
            assert sorted(indices) == list(range(bip.dim)), (n, k, d)
            weights = set()
            for idx, _ in blocks:
                assert list(idx) == sorted(idx), (n, k, d)
                ia, ib = np.divmod(idx, bip.dim_b)
                diffs = {tuple(np.subtract(labels_a[a], labels_b[b]).ravel()) for a, b in zip(ia, ib)}
                assert len(diffs) == 1, (n, k, d)
                weights |= diffs
            assert len(weights) == len(blocks), (n, k, d)
            # qudit_min_eig_check hands the stacks to the eigensolvers unsymmetrized.
            for _, stack in _weight_stacks(bip):
                assert stack.tobytes() == stack.swapaxes(-1, -2).tobytes(), (n, k, d)


def qudit_cuts():
    """The 150 cuts of qudit-check --d {2,3,4} --nmax 15 within DIM_CAP."""
    return [
        (n, d, k)
        for d in (2, 3, 4)
        for n in range(2, 16)
        for k in range(1, n // 2 + 1)
        if Bipartition(n, k, d).dim <= DIM_CAP
    ]


class TestWeightStacks:
    """The size-stacked assembly against the per-pair, per-block oracle."""

    def test_blocks_bitwise_equal_to_per_pair_oracle_in_size_then_weight_order(self):
        # (2, 1, 70) has object-dtype label keys past int64; d = 5, 6 lie past qudit-check's range.
        cuts = [(n, k, d) for n, d, k in qudit_cuts()] + [(2, 1, 70), (4, 2, 5), (6, 3, 5), (3, 1, 6), (5, 2, 6)]
        for n, k, d in cuts:
            bip = Bipartition(n, k, d)
            want = dict(weight_blocks_per_pair(bip))
            got = maxmixed_pt_blocks(bip)
            assert sorted(idx for idx, _ in got) == sorted(want), (n, k, d)
            for idx, block in got:
                assert (block.shape, block.tobytes()) == (want[idx].shape, want[idx].tobytes()), (n, k, d)
            # Sizes nondecreasing, and within a size the weight keys of _label_keys ascending: the
            # label difference a - b of occupation tuples as base-(n + 1) digits.
            labels_a, labels_b = list(compositions(k, d)), list(compositions(n - k, d))
            keys = []
            for idx, _ in got:
                a, b = divmod(idx[0], bip.dim_b)
                digits = enumerate(zip(labels_a[a], labels_b[b]))
                keys.append((len(idx), sum((x - y) * (n + 1) ** j for j, (x, y) in digits)))
            assert keys == sorted(keys), (n, k, d)

    def test_qudit_minimum_bitwise_equal_to_per_block_oracle(self):
        cuts = qudit_cuts()
        assert len(cuts) == 150
        for n, d, k in cuts:
            numeric, _ = qudit_min_eig_check(n, d, k)
            assert numeric == min_eig_per_block(Bipartition(n, k, d)), (n, d, k)

    def test_balanced_qubit_minimum_bitwise_equal_to_per_block_oracle(self):
        for n in range(2, 81):
            numeric, _ = qudit_min_eig_check(n, 2, n // 2)
            assert numeric == min_eig_per_block(Bipartition(n, n // 2)), n

    def test_dense_matrix_bitwise_equal_to_oracle_scatter(self):
        for n in range(4, 41):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                dense = maxmixed_pt(bip).matrix
                assert dense.real.tobytes() == scatter_blocks(bip).tobytes(), (n, k)
                assert not dense.imag.any(), (n, k)


class TestAnalyticSpectrum:
    def test_five_qubit_example(self):
        spec = maxmixed_pt_spectrum(Bipartition(5, 2))
        assert spec.entries == (
            (Fraction(1, 60), 6),
            (Fraction(1, 10), 4),
            (Fraction(1, 4), 2),
        )

    def test_two_qubit_example(self):
        spec = maxmixed_pt_spectrum(Bipartition(2, 1))
        assert spec.entries == ((Fraction(1, 6), 3), (Fraction(1, 2), 1))

    def test_weighted_sum_is_one_exactly(self):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                spec = maxmixed_pt_spectrum(Bipartition(n, k))
                assert sum(v * m for v, m in spec.entries) == 1

    def test_eigenvalue_window(self):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                for v, _ in maxmixed_pt_spectrum(Bipartition(n, k)).entries:
                    assert 0 < v < Fraction(2, n + 1)

    def test_matches_numeric_multiset(self):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                numeric = np.sort(np.linalg.eigvalsh(maxmixed_pt(bip).matrix.real))
                analytic = maxmixed_pt_spectrum(bip).expanded()
                assert len(numeric) == len(analytic)
                assert np.max(np.abs(numeric - analytic)) < 1e-10, (n, k)

    def test_qudit_input_rejected(self):
        with pytest.raises(ValueError):
            maxmixed_pt_spectrum(Bipartition(4, 2, 3))

    def test_recurrence_equals_closed_form(self):
        # The levels come from a binomial recurrence; each must equal the closed
        # form C(n+1, j) / [(n+1) C(n, k)] with multiplicity n+1-2j exactly.
        for n in range(2, 120):
            for k in range(1, n // 2 + 1):
                denom = (n + 1) * math.comb(n, k)
                want = tuple((Fraction(math.comb(n + 1, j), denom), n + 1 - 2 * j) for j in range(k + 1))
                assert maxmixed_pt_spectrum(Bipartition(n, k)).entries == want, (n, k)


class TestSpectrumGrouping:
    def test_groups_degenerate_values(self):
        spec = Spectrum.from_eigenvalues([0.1, 0.1 + 1e-12, 0.5, 0.5, 0.9])
        assert [(round(v, 6), m) for v, m in spec.entries] == [(0.1, 2), (0.5, 2), (0.9, 1)]

    def test_levels_below_any_absolute_gap_stay_apart(self):
        spec = Spectrum.from_eigenvalues([2e-10, 2e-10, 6.2e-9, 6.2e-9, 0.05])
        assert [m for _, m in spec.entries] == [2, 2, 1]

    def test_degeneracy_boundary(self):
        # DEGENERACY_REL = 1e-6, written out: a gap of half of it joins, twice it splits.
        assert [m for _, m in Spectrum.from_eigenvalues([1.0, 1.0 + 0.5e-6]).entries] == [2]
        assert [m for _, m in Spectrum.from_eigenvalues([1.0, 1.0 + 2e-6]).entries] == [1, 1]

    def test_dimension(self):
        assert Spectrum.from_eigenvalues([1.0, 2.0, 2.0]).dimension == 3

    def test_empty_input(self):
        assert Spectrum.from_eigenvalues([]).entries == ()
        assert Spectrum.from_eigenvalues(np.zeros(0)).entries == ()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, bad):
        # A nan would make the degeneracy noise nan, and so the whole input one level.
        for values in ([bad, 1.0], [1.0, 2.0, bad], [bad]):
            with pytest.raises(ValueError, match=rf"^Spectrum.from_eigenvalues: non-finite eigenvalue {bad}$"):
                Spectrum.from_eigenvalues(values)

    # Values drawn from a few levels, each nudged by a few ulps or by about the
    # relative degeneracy gap, so ties, degenerate runs and near-splits all occur.
    @settings(derandomize=True, max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1e-19, 2e-10, 0.1, 0.5, -0.3, 7.0]),
                st.sampled_from([0.0, 1e-16, -3e-16, 5e-7, -2e-6, 1e-3]),
            ),
            max_size=40,
        )
    )
    def test_bitwise_equal_to_index_loop(self, draws):
        values = [level * (1 + nudge) + nudge * 1e-12 for level, nudge in draws]
        got = Spectrum.from_eigenvalues(values).entries
        want = spectrum_entries_by_index(values)
        assert [(struct.pack("<d", v), m) for v, m in got] == [(struct.pack("<d", v), m) for v, m in want]


class TestLadderOperators:
    def test_weight_is_diagonal_with_expected_action(self):
        bip = Bipartition(5, 2)
        ops = ladder_operators(bip)
        n, k = 5, 2
        for a in range(k + 1):
            for b in range(n - k + 1):
                idx = a * bip.dim_b + b
                vec = np.zeros(bip.dim)
                vec[idx] = 1.0
                out = ops.weight @ vec
                assert out[idx] == pytest.approx(k + b - a - n / 2, abs=1e-14)

    def test_adjoint_pairing(self):
        ops = ladder_operators(Bipartition(7, 3))
        assert np.array_equal(ops.raise_op.T, ops.lower_op)

    def test_lowering_is_the_transpose_bitwise(self):
        for n in range(2, 25):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                ops = ladder_operators(bip)
                lower = ops.lower_op
                assert lower.tobytes() == np.ascontiguousarray(ops.raise_op.T).tobytes(), (n, k)
                assert lower.tobytes() == ladder_lower_reference(bip).tobytes(), (n, k)
                assert not np.shares_memory(lower, ops.raise_op)

    def test_commutation_relations(self):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                ops = ladder_operators(bip)
                comm_plus = ops.weight @ ops.raise_op - ops.raise_op @ ops.weight
                comm_minus = ops.weight @ ops.lower_op - ops.lower_op @ ops.weight
                assert np.linalg.norm(comm_plus - ops.raise_op) < 1e-12
                assert np.linalg.norm(comm_minus + ops.lower_op) < 1e-12

    def test_commute_with_transposed_uniform_state(self):
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                ops = ladder_operators(bip)
                pt = maxmixed_pt(bip).matrix.real
                for m in (ops.raise_op, ops.lower_op, ops.weight):
                    assert np.linalg.norm(m @ pt - pt @ m) < 1e-12, (n, k)

    def test_qudit_rejected(self):
        with pytest.raises(ValueError):
            ladder_operators(Bipartition(4, 2, 3))


class TestEigenbasis:
    @pytest.mark.parametrize("n,k", [(5, 2), (8, 4), (9, 3), (2, 1)])
    def test_eigen_equations(self, n, k):
        bip = Bipartition(n, k)
        pt = maxmixed_pt(bip).matrix.real
        spec = {j: float(v) for j, (v, _) in enumerate(maxmixed_pt_spectrum(bip).entries)}
        basis = maxmixed_pt_eigenbasis(bip)
        for j, m, vec in basis:
            assert np.linalg.norm(pt @ vec - spec[j] * vec) < 1e-10, (j, m)

    def test_count_matches_dimension(self):
        for n in range(2, 11):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                basis = maxmixed_pt_eigenbasis(bip)
                assert len(basis) == bip.dim
                assert [(j, m) for j, m, _ in basis] == [
                    (j, m) for j in range(k + 1) for m in range(j, n - j + 1)
                ]

    def test_orthonormal(self):
        for n, k in [(5, 2), (10, 5)]:
            basis = maxmixed_pt_eigenbasis(Bipartition(n, k))
            mat = np.array([vec for _, _, vec in basis])
            assert np.max(np.abs(mat @ mat.T - np.eye(len(basis)))) < 1e-10

    def test_lowest_level_seed_is_corner_product(self):
        for n, k in [(5, 2), (7, 3)]:
            bip = Bipartition(n, k)
            basis = {(j, m): vec for j, m, vec in maxmixed_pt_eigenbasis(bip)}
            expected = np.zeros(bip.dim)
            expected[k * bip.dim_b + 0] = 1.0  # |D_k^(k)>|D_{n-k}^(0)>
            assert np.allclose(basis[(0, 0)], expected, atol=1e-14)
            other = np.zeros(bip.dim)
            other[0 * bip.dim_b + (n - k)] = 1.0  # |D_k^(0)>|D_{n-k}^(n-k)>
            assert abs(abs(other @ basis[(0, n)]) - 1) < 1e-12

    def test_weight_eigen_equations(self):
        bip = Bipartition(6, 3)
        weight = ladder_operators(bip).weight
        for j, m, vec in maxmixed_pt_eigenbasis(bip):
            assert np.linalg.norm(weight @ vec - (m - 3) * vec) < 1e-10


class TestKernelDimensions:
    def test_lowering_kernel_per_weight_sector(self):
        # the lowering operator annihilates exactly one ray in the weight-m
        # sector when m <= k and none otherwise
        for n in range(2, 11):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                lower = ladder_operators(bip).lower_op
                sectors = {}
                for a in range(k + 1):
                    for b in range(n - k + 1):
                        sectors.setdefault(b - a + k, []).append(a * bip.dim_b + b)
                for m in range(n + 1):
                    cols = sectors[m]
                    sub = lower[:, cols]
                    kernel = len(cols) - np.linalg.matrix_rank(sub, tol=1e-10)
                    assert kernel == (1 if m <= k else 0), (n, k, m)


class TestSchmidt:
    def test_ghz_spectrum(self):
        for n, k in [(5, 2), (8, 1), (6, 3)]:
            gammas = schmidt_spectrum(ghz_state(n), Bipartition(n, k))
            assert gammas[0] == pytest.approx(0.5, abs=1e-12)
            assert gammas[1] == pytest.approx(0.5, abs=1e-12)
            assert np.allclose(gammas[2:], 0, atol=1e-12)

    def test_product_state(self):
        import symppt

        amps = np.zeros(6)
        amps[0] = 1.0
        psi = symppt.PureSymmetricState(5, 2, amps)
        gammas = schmidt_spectrum(psi, Bipartition(5, 2))
        assert gammas[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(gammas[1:], 0, atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, n // 2 + 1))
            gammas = schmidt_spectrum(random_pure(n, 2, rng), Bipartition(n, k))
            assert gammas.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pure_pt_min_eig_is_minus_sqrt_gamma12(self):
        rng = np.random.default_rng(53)
        for n in range(2, 11):
            for k in range(1, n // 2 + 1):
                bip = Bipartition(n, k)
                for _ in range(20):
                    psi = random_pure(n, 2, rng)
                    gammas = schmidt_spectrum(psi, bip)
                    pt = partial_transpose_a(embed_bipartite(psi.density(), bip))
                    expected = -math.sqrt(gammas[0] * gammas[1])
                    assert min_eigenvalue(pt) == pytest.approx(expected, abs=1e-10)


class TestMixtureBound:
    def test_ghz_threshold_zero(self):
        p = float(Fraction(30, 31))
        assert mixture_min_eig_bound(ghz_state(5), p, Bipartition(5, 2)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_product_state_positive(self):
        import symppt

        amps = np.zeros(6)
        amps[0] = 1.0
        psi = symppt.PureSymmetricState(5, 2, amps)
        for p in (0.0, 0.3, 1.0):
            got = mixture_min_eig_bound(psi, p, Bipartition(5, 2))
            assert got == pytest.approx(p / 60, abs=1e-15)
            assert got >= 0

    def test_lower_bounds_true_minimum(self):
        rng = np.random.default_rng(59)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n // 2 + 1))
            p = float(rng.random())
            bip = Bipartition(n, k)
            psi = random_pure(n, 2, rng)
            bound = mixture_min_eig_bound(psi, p, bip)
            rho = mix_with_identity(n, p, psi)
            true_min = min_eigenvalue(partial_transpose_a(embed_bipartite(rho, bip)))
            assert bound <= true_min + 1e-10


class TestGhzCornerEigencheck:
    def test_threshold_saturation(self):
        lam, residual = ghz_corner_eigencheck(5, 2, float(Fraction(30, 31)))
        assert abs(lam) < 1e-14
        assert residual < 1e-12

    def test_below_threshold_value(self):
        lam, residual = ghz_corner_eigencheck(5, 2, 0.96)
        assert lam == pytest.approx(0.96 / 60 - 0.02, abs=1e-14)
        assert residual < 1e-12

    def test_seven_qubit_threshold(self):
        lam, residual = ghz_corner_eigencheck(7, 3, float(Fraction(140, 141)))
        assert abs(lam) < 1e-14
        assert residual < 1e-12

    def test_matches_closed_form_generally(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n // 2 + 1))
            p = float(rng.random())
            lam, residual = ghz_corner_eigencheck(n, k, p)
            expected = p / ((n + 1) * math.comb(n, k)) - (1 - p) / 2
            assert lam == pytest.approx(expected, abs=1e-12)
            assert residual < 1e-12


class TestQuditMinEig:
    @pytest.mark.parametrize(
        "n,d,k,expected",
        [
            (4, 3, 2, Fraction(1, 90)),
            (5, 2, 2, Fraction(1, 60)),
            (3, 4, 1, Fraction(1, 60)),
            (6, 2, 3, Fraction(1, 140)),
        ],
    )
    def test_conjectured_values(self, n, d, k, expected):
        numeric, conjectured = qudit_min_eig_check(n, d, k)
        assert conjectured == expected
        assert abs(numeric - float(expected)) < 1e-9

    def test_blocked_route_equals_dense_eigensolver(self):
        for n, d, k in [(4, 3, 2), (3, 4, 1), (5, 3, 2), (8, 2, 4)]:
            numeric, _ = qudit_min_eig_check(n, d, k)
            dense = min_eigenvalue(maxmixed_pt(Bipartition(n, k, d)))
            assert numeric == pytest.approx(dense, abs=1e-12)

    def test_bad_eigenpair_raises(self, monkeypatch):
        # The minimum of (5, 3, 2) lies on a block wider than 1, so tilting
        # the eigenvector towards another one leaves a residual.
        monkeypatch.setattr(np.linalg, "eigh", tilted_eigh)
        with pytest.raises(RuntimeError) as info:
            qudit_min_eig_check(5, 3, 2)
        # The residual depends on which eigenvector of a degenerate level the kernel returns:
        # 2.86e-08 under SkylakeX and Prescott, 9.52e-08 under Haswell.
        assert re.fullmatch(r"qudit_min_eig_check: eigenpair residual \d(\.\d\d?)?e-\d\d exceeds 1e-10", str(info.value))

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    @pytest.mark.parametrize("over", [False, True], ids=["at-bound", "just-over"])
    def test_residual_boundary(self, monkeypatch, scale, over):
        # The bound is RESIDUAL_TOL * max(1, max |lam|) of the minimising block: RESIDUAL_TOL on
        # the uniform state's blocks (scale 1), 4 RESIDUAL_TOL where eigh reports levels up to 4.
        eigh, bound = np.linalg.eigh, RESIDUAL_TOL * scale
        residual = math.nextafter(bound, 1) if over else bound
        expected = qudit_min_eig_check(5, 3, 2)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.linspace(-1, scale, len(a)), eigh(a)[1]))
        monkeypatch.setattr(np.linalg, "norm", lambda x: residual)
        if not over:
            assert qudit_min_eig_check(5, 3, 2) == expected
        else:
            with pytest.raises(RuntimeError) as info:
                qudit_min_eig_check(5, 3, 2)
            assert str(info.value) == f"qudit_min_eig_check: eigenpair residual {residual:.3g} exceeds {bound:.3g}"

    def test_nan_residual_raises(self, monkeypatch):
        # nan > RESIDUAL_TOL is false: a test written that way let this pair pass.
        eigh = np.linalg.eigh

        def nan_vector(a):
            w, v = eigh(a)
            return w, np.full_like(v, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", nan_vector)
        with pytest.raises(RuntimeError) as info:
            qudit_min_eig_check(5, 3, 2)
        assert str(info.value) == "qudit_min_eig_check: eigenpair residual nan exceeds 1e-10"

    def test_size_cap(self):
        with pytest.raises(ValueError):
            qudit_min_eig_check(20, 4, 10)
        with pytest.raises(ValueError, match="exceeds cap"):
            maxmixed_pt(Bipartition(2000, 1000))


def test_sappt_threshold_consistency_with_corner_vector():
    # below the threshold the corner eigenvalue is negative at the balanced cut
    for n in range(4, 11):
        p_min = float(sappt_threshold_qubits(n))
        lam, _ = ghz_corner_eigencheck(n, n // 2, p_min * (1 - 1e-6))
        assert lam < 0
        lam, _ = ghz_corner_eigencheck(n, n // 2, p_min)
        assert abs(lam) < 1e-12


@pytest.mark.parametrize("call, error, message", [
    (lambda: maxmixed_pt_eigenbasis(Bipartition(4, 1, 3)), ValueError,
     "maxmixed_pt_eigenbasis: defined for qubits only"),
    (lambda: schmidt_spectrum(ghz_state(5), Bipartition(4, 1)), ValueError,
     "schmidt_spectrum: state (n=5, d=2) does not match Bipartition(n=4, k=1, d=2)"),
    (lambda: mixture_min_eig_bound(ghz_state(4), 0.5, Bipartition(4, 1, 3)), ValueError,
     "mixture_min_eig_bound: defined for qubits only"),
    (lambda: mixture_min_eig_bound(ghz_state(4), 1.5, Bipartition(4, 1)), ValueError,
     "mixture_min_eig_bound: p must lie in [0, 1], got 1.5"),
], ids=["eigenbasis-qudit", "schmidt-mismatch", "bound-qudit", "bound-p-above-1"])
def test_domain_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
