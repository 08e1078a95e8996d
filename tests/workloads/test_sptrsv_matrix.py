"""Synthetic supernodal matrix generation and structure."""

import hashlib
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.machines import perlmutter_cpu
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.sptrsv import matrix as matrix_mod


class TestSpec:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MatrixSpec(n_supernodes=1)
        with pytest.raises(ValueError):
            MatrixSpec(width_lo=0)
        with pytest.raises(ValueError):
            MatrixSpec(width_lo=10, width_hi=5)
        with pytest.raises(ValueError):
            MatrixSpec(block_density=0)
        with pytest.raises(ValueError):
            MatrixSpec(density_range=-1)


class TestStructure:
    def test_offsets_consistent_with_widths(self, small_matrix):
        m = small_matrix
        assert m.offsets[0] == 0
        for j, w in enumerate(m.widths):
            lo, hi = m.sn_range(j)
            assert hi - lo == w
        assert m.n == sum(m.widths)

    def test_widths_within_spec(self):
        spec = MatrixSpec(n_supernodes=30, width_lo=5, width_hi=9, seed=1)
        m = generate_matrix(spec)
        assert all(5 <= w <= 9 for w in m.widths)

    def test_lower_triangular_blocks_only(self, small_matrix):
        assert all(I >= J for I, J in small_matrix.blocks)

    def test_diagonal_blocks_unit_lower(self, small_matrix):
        for j in range(small_matrix.n_supernodes):
            d = small_matrix.blocks[(j, j)]
            assert np.allclose(np.diag(d), 1.0)
            assert np.allclose(np.triu(d, k=1), 0.0)

    def test_every_supernode_has_a_predecessor(self, small_matrix):
        """The generator guarantees DAG connectivity so communication is
        exercised for every supernode."""
        for I in range(1, small_matrix.n_supernodes):
            assert small_matrix.row_blocks(I), f"supernode {I} is isolated"

    def test_column_and_row_blocks_consistent(self, small_matrix):
        m = small_matrix
        for (I, J) in m.blocks:
            if I > J:
                assert I in m.column_blocks(J)
                assert J in m.row_blocks(I)

    def test_deterministic_for_seed(self):
        spec = MatrixSpec(n_supernodes=12, seed=42)
        m1, m2 = generate_matrix(spec), generate_matrix(spec)
        assert m1.widths == m2.widths
        assert set(m1.blocks) == set(m2.blocks)

    def test_different_seeds_differ(self):
        m1 = generate_matrix(MatrixSpec(n_supernodes=12, seed=1))
        m2 = generate_matrix(MatrixSpec(n_supernodes=12, seed=2))
        assert set(m1.blocks) != set(m2.blocks) or m1.widths != m2.widths

    def test_message_sizes_in_paper_range(self):
        """Paper: SpTRSV messages span 24 B to 1040 B."""
        m = generate_matrix(MatrixSpec(n_supernodes=64, width_lo=3, width_hi=130))
        sizes = m.message_sizes()
        assert sizes.min() >= 24
        assert sizes.max() <= 1040


class TestCsrConversion:
    def test_csr_is_lower_triangular(self, small_matrix):
        L = small_matrix.to_csr()
        assert (L - sp.tril(L)).nnz == 0

    def test_csr_diag_is_ones(self, small_matrix):
        L = small_matrix.to_csr()
        assert np.allclose(L.diagonal(), 1.0)

    def test_csr_nnz_matches_blocks(self, small_matrix):
        m = small_matrix
        L = m.to_csr()
        expected = 0
        for (I, J), b in m.blocks.items():
            if I == J:
                w = b.shape[0]
                expected += w * (w + 1) // 2
            else:
                expected += b.size
        # to_csr may drop explicit zeros from random blocks (none expected,
        # values are continuous), so equality should hold.
        assert L.nnz == expected


class TestDag:
    def test_edges_sorted_and_forward(self, small_matrix):
        edges = small_matrix.dag_edges()
        assert all(j < i for j, i in edges)
        assert edges == sorted(edges)

    def test_critical_path_bounds(self, small_matrix):
        cp = small_matrix.critical_path_length()
        assert 2 <= cp <= small_matrix.n_supernodes


class TestStructureFirst:
    """A matrix is its structure until something reads a value: the
    structure is drawn without values, the values by replaying the same
    draws.  Hashes recorded when the generator built every value block up
    front, for fig08's, the ablations' and host_involvement's specs."""

    HASHES = {
        (220, 2): (
            "6f92f408499e7b05a77b750801572f6f878f74e3f7d60daec91ce4b10a771bbf",
            "647033818c4500bc27c07de428b2dd322c783b4952081d45fec60a6201e2198b",
        ),
        (120, 4): (
            "69d86a735c11b328e8b94aa8d53b9a9889444dcf92de6c112ef6aee325d11760",
            "5b41e947acb516b9cf4ea7b26415c8a8fd4b04b93936672e6be0a288475d82c3",
        ),
        (48, 4): (
            "ae20891c7c7224b01cd62e8bc0f70d0e066571f9248295b04ce6a44f16f054c6",
            "4584ff94c74c778f41e38394003ad32f4eaea8fa4dcc766245afc634171c02e9",
        ),
    }

    @pytest.mark.parametrize("n_supernodes, seed", list(HASHES))
    def test_structure_and_values_equal_the_recorded_hashes(self, n_supernodes, seed):
        m = matrix_mod._build_matrix(MatrixSpec(n_supernodes=n_supernodes, seed=seed))
        keys = sorted(m.shapes)
        structure = json.dumps(
            {"widths": list(m.widths), "blocks": [[I, J, *m.shapes[I, J]] for I, J in keys]}
        )
        assert "blocks" not in vars(m)  # the structure alone draws no values
        values = hashlib.sha256()
        for key in keys:
            values.update(m.blocks[key].tobytes())
        assert (
            hashlib.sha256(structure.encode()).hexdigest(),
            values.hexdigest(),
        ) == self.HASHES[n_supernodes, seed]

    def test_a_simulated_solve_leaves_the_values_undrawn(self):
        m = matrix_mod._build_matrix(MatrixSpec(n_supernodes=24, seed=2))
        res = run_sptrsv(perlmutter_cpu(), "one_sided", m, 4)
        assert res.time > 0 and res.extras["nnz"] == m.nnz
        assert "blocks" not in vars(m)
