"""Property-based tests on one-sided window semantics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.comm import Job
from repro.machines import perlmutter_cpu


class TestPutGetProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 16),
        st.integers(0, 1000),
    )
    def test_put_roundtrip_any_geometry(self, P, n, seed):
        """Data put to any target is exactly what get returns after flush."""
        rng = np.random.default_rng(seed)
        data = rng.normal(size=n)
        target = int(rng.integers(1, P))
        offset = int(rng.integers(0, 4))
        job = Job(perlmutter_cpu(), P, "one_sided", placement="spread")
        win = job.window(n + 4)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(target, data, offset=offset)
                yield from h.flush(target)
                req = yield from h.get(target, offset=offset, nelems=n)
                got = yield from ctx.wait(req)
                return got
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert np.allclose(res.results[0], data)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 500))
    def test_faa_allocates_unique_dense_indices(self, P, seed):
        """Fetch-and-add from racing ranks hands out 0..P-2 exactly once,
        for every P and schedule perturbation."""
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0, 2e-6, size=P)
        job = Job(perlmutter_cpu(), P, "one_sided", placement="spread")
        win = job.window(1, dtype=np.int64)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from ctx.compute(seconds=0)
                return None
            yield from ctx.compute(seconds=float(delays[ctx.rank]))
            old = yield from h.faa_blocking(0, 0, 1)
            return old

        res = job.run(program)
        assert sorted(res.results[1:]) == list(range(P - 1))
