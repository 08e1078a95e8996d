"""Edge cases of the completion verbs and wildcard receives.

MPI leaves several corners underspecified in folklore but precise in the
standard: zero-request waits complete immediately and wildcard receives
report the *actual* source/tag in the status.  Pin our semantics.
"""

import pytest

from repro.comm import ANY_SOURCE, ANY_TAG, Job


class TestWaitanyEdges:
    def test_waitall_empty_request_list(self, pm_cpu):
        def program(ctx):
            values = yield from ctx.waitall([])
            return values

        assert Job(pm_cpu, 1, "two_sided").run(program).results == [[]]


class TestWildcards:
    def test_recv_any_source_reports_actual_source(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                sources = set()
                for _ in range(2):
                    _, status = yield from ctx.recv(source=ANY_SOURCE, tag=7)
                    sources.add(status.source)
                return sources
            req = yield from ctx.isend(0, nbytes=16, tag=7, payload=ctx.rank)
            yield from ctx.waitall([req])

        res = Job(pm_cpu, 3, "two_sided").run(program)
        assert res.results[0] == {1, 2}

    def test_recv_any_tag_reports_actual_tag(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                tags = set()
                for _ in range(2):
                    _, status = yield from ctx.recv(source=1, tag=ANY_TAG)
                    tags.add(status.tag)
                return tags
            for tag in (3, 11):
                req = yield from ctx.isend(0, nbytes=8, tag=tag)
                yield from ctx.waitall([req])

        res = Job(pm_cpu, 2, "two_sided", placement="spread").run(program)
        assert res.results[0] == {3, 11}

    def test_irecv_source_out_of_range_rejected(self, pm_cpu):
        from repro.comm import CommError

        def program(ctx):
            with pytest.raises(CommError, match="out of range"):
                yield from ctx.irecv(source=5)
            yield from ctx.compute(seconds=0)

        Job(pm_cpu, 2, "two_sided").run(program)
