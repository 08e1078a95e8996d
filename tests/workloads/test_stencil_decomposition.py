"""Process grid decomposition: coords, neighbors, blocks, halo sizes."""

import pytest

from repro.workloads.stencil import ProcessGrid


class TestGridShape:
    @pytest.mark.parametrize(
        "p,shape", [(1, (1, 1)), (4, (2, 2)), (8, (4, 2)), (128, (16, 8)), (6, (3, 2))]
    )
    def test_square_ish_matches_paper_shapes(self, p, shape):
        g = ProcessGrid.square_ish(p)
        assert (g.px, g.py) == shape
        assert g.nranks == p

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            ProcessGrid(0, 2)
        with pytest.raises(ValueError):
            ProcessGrid.square_ish(0)


class TestCoordsAndNeighbors:
    def test_coords_roundtrip(self):
        g = ProcessGrid(4, 3)
        for r in range(12):
            ix, iy = g.coords(r)
            assert g.rank_of(ix, iy) == r

    def test_out_of_grid_is_none(self):
        g = ProcessGrid(2, 2)
        assert g.rank_of(-1, 0) is None
        assert g.rank_of(2, 0) is None

    def test_corner_has_two_neighbors(self):
        g = ProcessGrid(3, 3)
        assert set(g.neighbors(0)) == {"east", "south"}

    def test_interior_has_four(self):
        g = ProcessGrid(3, 3)
        nb = g.neighbors(4)  # center
        assert set(nb) == {"north", "south", "east", "west"}
        assert nb["north"] == 1 and nb["south"] == 7
        assert nb["west"] == 3 and nb["east"] == 5

    def test_neighbors_symmetric(self):
        g = ProcessGrid(4, 4)
        for r in range(16):
            for d, nb in g.neighbors(r).items():
                assert g.neighbors(nb)[ProcessGrid.opposite(d)] == r

    def test_opposite(self):
        assert ProcessGrid.opposite("north") == "south"
        assert ProcessGrid.opposite("east") == "west"


class TestBlocks:
    def test_even_split_partitions_grid(self):
        g = ProcessGrid(2, 2)
        covered = set()
        for r in range(4):
            rows, cols = g.block(r, 8, 8)
            for i in range(rows.start, rows.stop):
                for j in range(cols.start, cols.stop):
                    covered.add((i, j))
        assert len(covered) == 64

    def test_uneven_split_partitions_grid(self):
        g = ProcessGrid(3, 2)
        total = 0
        for r in range(6):
            rows, cols = g.block(r, 10, 7)
            total += (rows.stop - rows.start) * (cols.stop - cols.start)
        assert total == 70

    def test_uneven_split_near_equal(self):
        g = ProcessGrid(3, 1)
        widths = [
            cols.stop - cols.start for _rows, cols in (g.block(r, 10, 3) for r in range(3))
        ]
        assert sorted(widths) == [3, 3, 4]

    def test_too_small_grid_rejected(self):
        g = ProcessGrid(4, 4)
        with pytest.raises(ValueError):
            g.block(0, 2, 2)

    def test_paper_message_size_scaling(self):
        """Paper: grid 16384^2, P=4..128 => halo messages 2^16 down to
        2^13 bytes."""
        assert ProcessGrid.square_ish(4).halo_bytes(16384, 16384)["east"] == 2**16
        assert ProcessGrid.square_ish(128).halo_bytes(16384, 16384)["north"] == 2**13

    def test_halo_bytes_directions(self):
        hb = ProcessGrid(4, 2).halo_bytes(64, 64)
        assert hb["north"] == hb["south"] == 16 * 8
        assert hb["west"] == hb["east"] == 32 * 8
