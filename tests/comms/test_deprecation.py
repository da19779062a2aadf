"""The keyword call forms of the collectives run without a DeprecationWarning."""

import numpy as np
import pytest

from repro import hvd

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


@pytest.fixture
def single_rank_hvd():
    hvd.init()
    yield
    hvd.shutdown()


class TestKeywordFormsAreSilent:
    """module-level filterwarnings turns any DeprecationWarning into a failure"""

    def test_allreduce(self, single_rank_hvd):
        out = hvd.allreduce(np.ones(4), op="sum", name="grad")
        np.testing.assert_array_equal(out, np.ones(4))

    def test_allreduce_with_options(self, single_rank_hvd):
        out = hvd.allreduce(
            np.ones(4), op="mean", options=hvd.CollectiveOptions(algorithm="flat")
        )
        np.testing.assert_array_equal(out, np.ones(4))

    def test_broadcast(self, single_rank_hvd):
        assert hvd.broadcast([1, 2], root=0, name="payload") == [1, 2]

    def test_allgather(self, single_rank_hvd):
        assert hvd.allgather("x", name="xs") == ["x"]
