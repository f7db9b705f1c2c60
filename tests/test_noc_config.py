"""NocConfig validation and derived-quantity tests."""

import pytest

from repro.noc.config import FlowControl, NocConfig
from repro.noc.topology import Mesh2D


def test_defaults_match_table2():
    config = NocConfig()
    assert (config.width, config.height) == (4, 4)
    assert config.vcs_per_port == 2
    assert config.vc_depth == 8
    assert config.flit_bytes == 8
    assert config.flow_control is FlowControl.WORMHOLE
    assert config.topology == "mesh"
    assert type(config.make_topology()) is Mesh2D  # XY routing


def test_vnet_vc_partitioning():
    config = NocConfig(vnets=2, vcs_per_vnet=2)
    assert list(config.vnet_vcs(0)) == [0, 1]
    assert list(config.vnet_vcs(1)) == [2, 3]
    assert config.vcs_per_port == 4


def test_n_nodes():
    assert NocConfig(width=8, height=8).n_nodes == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"width": 0},
        {"vnets": 0},
        {"vcs_per_vnet": 0},
        {"vc_depth": 0},
        {"flit_bytes": 0},
        {"height": 0},
        {"ejection_bandwidth": 0},
        {"concentration": 0},
        {"max_line_bytes": 0},
        # Unknown fabric names.
        {"topology": "hypercube"},
        {"topology": ""},
        {"retx_timeout": 0},
        # Wrap-around fabrics too small to wrap.
        {"topology": "torus", "width": 1, "vcs_per_vnet": 2},
        {"topology": "ring", "width": 1, "height": 1, "vcs_per_vnet": 2},
        # Dateline routings need escape VCs.
        {"topology": "torus"},
        {"topology": "ring"},
        # VCT/SAF must hold a whole max-size packet per VC.
        {"flow_control": FlowControl.VIRTUAL_CUT_THROUGH, "vc_depth": 8},
        {"flow_control": FlowControl.STORE_AND_FORWARD, "vc_depth": 8},
        {
            "flow_control": FlowControl.VIRTUAL_CUT_THROUGH,
            "vc_depth": 9,
            "max_line_bytes": 128,
        },
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        NocConfig(**kwargs)


def test_max_packet_flits():
    assert NocConfig().max_packet_flits == 9  # head + 64/8 data flits
    assert NocConfig(flit_bytes=16).max_packet_flits == 5
    assert NocConfig(max_line_bytes=72).max_packet_flits == 10


def test_vct_accepts_whole_packet_buffers():
    config = NocConfig(
        flow_control=FlowControl.VIRTUAL_CUT_THROUGH, vc_depth=9
    )
    assert config.vc_depth == config.max_packet_flits


def test_escape_class_partitioning():
    config = NocConfig(topology="torus", vcs_per_vnet=2)
    assert list(config.escape_class_vcs(0, 0)) == [0]
    assert list(config.escape_class_vcs(0, 1)) == [1]
    assert list(config.escape_class_vcs(1, 0)) == [2]
    assert list(config.escape_class_vcs(1, 1)) == [3]
    # The two classes partition each vnet's VC range.
    for vnet in range(config.vnets):
        union = set(config.escape_class_vcs(vnet, 0)) | set(
            config.escape_class_vcs(vnet, 1)
        )
        assert union == set(config.vnet_vcs(vnet))


def test_fabric_n_nodes_per_topology():
    assert NocConfig(topology="torus", vcs_per_vnet=2).n_nodes == 16
    assert NocConfig(topology="ring", vcs_per_vnet=2).n_nodes == 16
    assert NocConfig(topology="cmesh", concentration=4).n_nodes == 64
    assert NocConfig(topology="cmesh", width=2, height=2).n_nodes == 16


def test_make_topology_matches_config():
    for kwargs in (
        {"topology": "mesh"},
        {"topology": "torus", "vcs_per_vnet": 2},
        {"topology": "ring", "vcs_per_vnet": 2},
        {"topology": "cmesh", "width": 2, "height": 2},
    ):
        config = NocConfig(**kwargs)
        topology = config.make_topology()
        assert topology.name == config.topology
        assert topology.n_nodes == config.n_nodes


def test_flow_control_values():
    assert FlowControl("wormhole") is FlowControl.WORMHOLE
    assert FlowControl("vct") is FlowControl.VIRTUAL_CUT_THROUGH
    assert FlowControl("saf") is FlowControl.STORE_AND_FORWARD
