"""Fabric terms: point-to-point and negotiation prices.

The collectives are priced from their schedules (``tests/comms/test_plan.py``).
"""

import pytest

from repro.mpi import CollectiveCostModel, FabricSpec


@pytest.fixture
def fabric():
    return FabricSpec(
        name="test",
        intra_alpha_s=1e-6,
        intra_beta_s_per_b=1e-11,
        inter_alpha_s=1e-5,
        inter_beta_s_per_b=1e-10,
    )


@pytest.fixture
def cm(fabric):
    return CollectiveCostModel(fabric, ranks_per_node=6)


class TestBasics:
    def test_p2p_latency_plus_bandwidth(self, cm, fabric):
        t = cm.p2p(1000, spans_nodes=True)
        assert t == pytest.approx(fabric.inter_alpha_s + 1000 * fabric.inter_beta_s_per_b)

    def test_intra_vs_inter_link_selection(self, cm):
        assert cm.p2p(1000, spans_nodes=False) < cm.p2p(1000, spans_nodes=True)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            FabricSpec("bad", -1e-6, 1e-11, 1e-5, 1e-10)
        with pytest.raises(ValueError):
            CollectiveCostModel(
                FabricSpec("f", 1e-6, 1e-11, 1e-5, 1e-10), ranks_per_node=0
            )


class TestTreeAndMisc:
    def test_negotiate_grows_logarithmically(self, cm):
        assert cm.negotiate(1024) == pytest.approx(2 * cm.negotiate(32), rel=0.01)
