"""Inputs a sweep's points share are built once, exactly, and cannot be
corrupted through any of the handles: the memoised SpTRSV matrix with its
block index, and the hashtable's one vectorised hash per key.  Everything
here is a count or an equality — never a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import get_machine
from repro.workloads.hashtable import HashTableConfig, TableGeometry, run_hashtable
from repro.workloads.sptrsv import MatrixSpec, generate_matrix
from repro.workloads.sptrsv import matrix as matrix_mod

specs = st.builds(
    MatrixSpec,
    n_supernodes=st.integers(2, 24),
    width_lo=st.integers(1, 3),
    width_hi=st.integers(3, 9),
    # Sparse enough that the connectivity pass has blocks to add.
    block_density=st.sampled_from((0.02, 0.28, 1.0)),
    density_range=st.sampled_from((0.5, 10.0)),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=60, deadline=None)
@given(specs)
def test_block_index_equals_the_scan_of_blocks(spec):
    m = matrix_mod._build_matrix(spec)
    for k in range(m.n_supernodes):
        assert list(m.column_blocks(k)) == sorted(
            I for (I, J) in m.blocks if J == k and I > k
        )
        assert list(m.row_blocks(k)) == sorted(
            J for (I, J) in m.blocks if I == k and J < k
        )
        assert k == 0 or m.row_blocks(k)  # the connectivity guarantee


@settings(max_examples=60, deadline=None)
@given(specs)
def test_the_structure_is_the_shapes_of_the_drawn_blocks(spec):
    m = matrix_mod._build_matrix(spec)
    structure = dict(m.shapes)
    assert {key: block.shape for key, block in m.blocks.items()} == structure
    assert list(m.blocks) == list(structure)  # same draw order
    assert m.nnz == sum(block.size for block in m.blocks.values())


geometries = st.builds(
    TableGeometry,
    nranks=st.integers(1, 130),
    slots_per_rank=st.integers(1, 1 << 40),
    heap_per_rank=st.just(8),
)


@settings(max_examples=100, deadline=None)
@given(geometries, st.lists(st.integers(1, (1 << 62) - 1), max_size=50))
def test_locate_many_is_locate_of_each_key(geom, keys):
    ranks, slots = geom.locate_many(np.array(keys, dtype=np.int64))
    assert ranks.dtype == slots.dtype == np.int64
    assert list(zip(ranks.tolist(), slots.tolist())) == [geom.locate(k) for k in keys]


def test_locate_many_rejects_the_empty_key():
    geom = TableGeometry(nranks=4, slots_per_rank=100, heap_per_rank=8)
    with pytest.raises(ValueError, match="reserved"):
        geom.locate_many(np.array([5, 0, 7], dtype=np.int64))
    with pytest.raises(ValueError, match="reserved"):
        geom.locate(0)


class TestMatrixMemo:
    def test_same_spec_is_the_same_object_and_a_new_spec_evicts(self):
        a, b = MatrixSpec(n_supernodes=12, seed=1), MatrixSpec(n_supernodes=12, seed=2)
        first = generate_matrix(a)
        assert generate_matrix(a) is first
        assert generate_matrix(MatrixSpec(n_supernodes=12, seed=1)) is first  # by value
        other = generate_matrix(b)
        assert other is not first and generate_matrix(b) is other
        rebuilt = generate_matrix(a)  # one entry: b evicted a
        assert rebuilt is not first
        assert rebuilt.widths == first.widths
        assert all(np.array_equal(rebuilt.blocks[k], first.blocks[k]) for k in first.blocks)

    def test_a_shared_matrix_cannot_be_written_through_a_handle(self):
        m = generate_matrix(MatrixSpec(n_supernodes=12, seed=1))
        assert isinstance(m.widths, tuple) and isinstance(m.offsets, tuple)
        assert not any(block.flags.writeable for block in m.blocks.values())
        with pytest.raises(ValueError, match="read-only"):
            m.blocks[(0, 0)][0, 0] = 2.0
        with pytest.raises(TypeError):
            m.blocks[(11, 0)] = np.zeros((1, 1))
        m.to_csr()  # assembling the CSR form only reads
        with pytest.raises(ValueError, match="read-only"):
            m.blocks[(1, 1)][...] += 1.0

    def test_fig08_builds_its_matrix_once(self, monkeypatch):
        from repro.experiments.fig08_sptrsv import _CASES, run_fig08

        built = []
        real = matrix_mod._build_matrix
        monkeypatch.setattr(
            matrix_mod, "_build_matrix", lambda spec: built.append(spec) or real(spec)
        )
        generate_matrix.cache_clear()
        run_fig08(n_supernodes=24, seed=2)
        assert len(_CASES) == 19  # the points that each asked for it, plus the title
        assert built == [MatrixSpec(n_supernodes=24, width_lo=3, width_hi=130, seed=2)]


@pytest.mark.parametrize(
    "machine, runtime", [("perlmutter-cpu", "one_sided"), ("perlmutter-cpu", "two_sided")]
)
def test_a_hashtable_run_hashes_each_key_exactly_once(monkeypatch, machine, runtime):
    hashed = []
    real = TableGeometry.locate_many

    def counting(self, keys):
        hashed.extend(np.asarray(keys).tolist())
        return real(self, keys)

    def per_key(self, key):
        raise AssertionError("run_hashtable hashed a key on its own")

    monkeypatch.setattr(TableGeometry, "locate_many", counting)
    monkeypatch.setattr(TableGeometry, "locate", per_key)
    res = run_hashtable(
        get_machine(machine), runtime, HashTableConfig(total_inserts=300, seed=4), 4
    )
    assert len(hashed) == 300 and sorted(hashed) == sorted(res.extras["values"])
