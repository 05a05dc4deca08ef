import json

import numpy as np
import pytest

from oracles import influence_receptive_field
from wrinet.analysis import (analyze, compare_unit_cost, count_macs,
                             count_parameters, unit_macs_per_position)
from wrinet.blocks import UnitSpec
from wrinet.builder import NetworkConfig, build_network, builtin_config
from wrinet.graph import NetworkGraph
from wrinet.tensor import ShapeError


# ---------------------------------------------------------------------------
# Independent parameter-count oracle: pure arithmetic over the config,
# no graph involved.
# ---------------------------------------------------------------------------

def params_by_arithmetic(cfg: NetworkConfig) -> int:
    def bn(c):
        return 2 * c

    def conv(cin, cout, k):
        return cin * k * k * cout

    kernel, stem = cfg.conv1
    total = conv(cfg.input_shape[0], stem, kernel)
    cin = stem
    for stage in cfg.stages:
        for u in stage.units:
            if u.variant == "basic":
                w = u.widths[0]
                total += bn(cin) + conv(cin, w, 3) + bn(w) + conv(w, u.out_channels, 3)
            elif u.variant == "bottleneck":
                r, m, w = u.widths
                total += (bn(cin) + conv(cin, r, 1) + bn(r) + conv(r, m, 3)
                          + bn(m) + conv(m, w, 1))
            else:
                s, b, c1, c2 = u.widths
                cat = s + b + c2
                total += (bn(cin) + conv(cin, s, 1)
                          + bn(s) + conv(s, b, 3)
                          + bn(s) + conv(s, c1, 3) + bn(c1) + conv(c1, c2, 3)
                          + bn(cat) + conv(cat, u.out_channels, 1))
            if u.stride != 1 or cin != u.out_channels:
                total += conv(cin, u.out_channels, 1)
            cin = u.out_channels
    total += bn(cin)
    total += cin * cfg.num_classes + cfg.num_classes
    return total


EXACT_TOTALS = {
    "wrn-16-4": 2748890,
    "wr-inception": 2733530,
    "wr-inception-l2": 4779082,
    "preact-resnet-164": 1703258,
}


@pytest.mark.parametrize("name,expected", sorted(EXACT_TOTALS.items()))
def test_count_parameters_matches_arithmetic_oracle(name, expected):
    cfg = builtin_config(name)
    g = build_network(cfg, seed=0)
    total, per_node = count_parameters(g)
    assert total == params_by_arithmetic(cfg) == expected
    assert total == sum(per_node.values())


def test_single_conv_with_bias_count():
    g = NetworkGraph(128)
    g.add_conv("c", "input", 128, 3, bias=True)
    total, _ = count_parameters(g)
    assert total == 128 * 9 * 128 + 128 == 147584


def test_inception_minus_basic_conv_weight_delta():
    inc = unit_macs_per_position(UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128))
    basic = unit_macs_per_position(UnitSpec("basic", 128, (128, 128), 1, 128))
    assert inc - basic == 278528 - 294912 == -16384


# ---------------------------------------------------------------------------
# MACs
# ---------------------------------------------------------------------------

def test_conv_macs_on_16x16_output():
    g = NetworkGraph(128)
    g.add_conv("c", "input", 128, 3)
    total, _, _ = count_macs(g, (16, 16))
    assert total == 128 * 9 * 128 * 256 == 37748736


def test_projection_macs_per_position():
    g = NetworkGraph(320)
    g.add_conv("c", "input", 128, 1, padding=0)
    total, _, _ = count_macs(g, (1, 1))
    assert total == 320 * 128 == 40960


def test_fc_width_must_match_flattened_input():
    g = NetworkGraph(3)
    g.add_conv("c", "input", 4, 3)
    g.add_fc("head", "c", 10)  # input is 4x8x8 = 256 wide, not 4
    with pytest.raises(ShapeError, match="'head' expects 4 input features"):
        g.infer_shapes((8, 8))
    with pytest.raises(ShapeError, match="'head'"):
        analyze(g, input_hw=(8, 8))


def test_macs_additive_and_order_invariant():
    def build(order_swapped: bool) -> NetworkGraph:
        g = NetworkGraph(4)
        g.add_conv("stem", "input", 4, 3)
        if order_swapped:
            g.add_conv("b", "stem", 4, 3)
            g.add_conv("a", "stem", 4, 1, padding=0)
        else:
            g.add_conv("a", "stem", 4, 1, padding=0)
            g.add_conv("b", "stem", 4, 3)
        g.add_concat("cat", ["a", "b"])
        return g

    t1, per1, _ = count_macs(build(False), (8, 8))
    t2, per2, _ = count_macs(build(True), (8, 8))
    assert t1 == t2 == sum(per1.values()) == sum(per2.values())


def test_compare_unit_cost_examples():
    inc = UnitSpec("inception", 128, (128, 64, 64, 128), 1, 128)
    basic = UnitSpec("basic", 128, (128, 128), 1, 128)
    assert compare_unit_cost(inc, basic) == pytest.approx(278528 / 294912)
    assert 0.90 <= compare_unit_cost(inc, basic) <= 1.00
    assert compare_unit_cost(basic, basic) == 1.0
    big = UnitSpec("basic", 256, (256, 256), 1, 256)
    assert compare_unit_cost(big, basic) == 4.0


# ---------------------------------------------------------------------------
# Receptive fields
# ---------------------------------------------------------------------------

def test_two_stacked_3x3_cover_5():
    g = NetworkGraph(1)
    g.add_conv("c1", "input", 1, 3)
    g.add_conv("c2", "c1", 1, 3)
    assert g.receptive_field_map((9, 9))["c2"][:2] == (5, 1)


def test_single_1x1_is_pointwise():
    g = NetworkGraph(1)
    g.add_conv("c", "input", 1, 1, padding=0)
    assert g.receptive_field_map((5, 5))["c"][:2] == (1, 1)


def test_strided_then_unit_stride():
    g = NetworkGraph(1)
    g.add_conv("c1", "input", 1, 3, stride=2)
    g.add_conv("c2", "c1", 1, 3)
    assert g.receptive_field_map((17, 17))["c2"][:2] == (7, 2)


def test_unknown_node_rejected():
    g = NetworkGraph(1)
    with pytest.raises(KeyError):
        g.receptive_field_map((5, 5))["nope"]


def rf_test_graph() -> NetworkGraph:
    """Convs, a stride-2 step, a concat and an add; all-ones weights so the
    pixel-influence oracle sees strictly positive propagation."""
    g = NetworkGraph(1, name="rf-mini")
    g.add_conv("c1", "input", 2, 3)
    g.add_conv("down", "c1", 2, 3, stride=2)
    g.add_bn_relu("relu", "down")
    g.add_conv("b1", "relu", 2, 1, padding=0)
    g.add_conv("b2", "relu", 2, 3)
    g.add_concat("cat", ["b1", "b2"])
    g.add_conv("proj", "cat", 2, 1, padding=0)
    g.add_conv("d", "proj", 2, 3)
    g.add_add("join", "d", "proj")
    for node in g.nodes.values():
        if node.op == "conv":
            node.conv.weights = np.ones_like(node.conv.weights, dtype=np.float64)
    return g


EXPECTED_RF = {"c1": 3, "down": 5, "relu": 5, "b1": 5, "b2": 9, "cat": 9,
               "proj": 9, "d": 13, "join": 13}


def test_rf_engine_matches_pixel_influence_oracle_on_all_nodes():
    g = rf_test_graph()
    rf_map = g.receptive_field_map((17, 17))
    for node, expected in EXPECTED_RF.items():
        assert rf_map[node][0] == expected

        def run(x, node=node):
            return g.forward(x, mode="infer", keep=g.order).outputs[node][0]

        measured = influence_receptive_field(run, (17, 17), channels=1)
        assert measured == expected, f"{node}: engine {expected}, oracle {measured}"


def test_join_reports_per_branch_extents():
    g = rf_test_graph()
    rf_map = g.receptive_field_map((17, 17))
    assert rf_map["cat"][2] == (5, 9)
    assert rf_map["join"][2] == (13, 9)


def test_spatial_join_of_unequal_strides_rejected():
    """13x13 reaches 7x7 through three 3x3 pad-0 convs (stride 1) and through
    one 1x1 stride-2 conv (stride 2): the shapes agree, the strides do not."""
    g = NetworkGraph(1)
    x = "input"
    for i in range(3):
        x = g.add_conv(f"c{i}", x, 1, 3, padding=0)
    g.add_conv("down", "input", 1, 1, stride=2, padding=0)
    g.add_add("join", x, "down")
    assert g.infer_shapes((13, 13))["join"] == (1, 7, 7)
    with pytest.raises(ShapeError, match="'join' merges paths of unequal stride"):
        g.receptive_field_map((13, 13))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def test_report_totals_and_serialization():
    cfg = builtin_config("wr-inception")
    g = build_network(cfg, seed=0)
    inception = cfg.stages[1].units[1]
    twin = UnitSpec("basic", 128, (128, 128), 1, 128)
    report = analyze(g, input_hw=(32, 32), comparisons=[(inception, twin)])
    assert report.total_params == sum(n.param_count for n in report.per_node)
    assert report.total_macs == sum(n.mac_count for n in report.per_node)
    parsed = json.loads(report.to_json())
    assert parsed["totals"]["params"] == EXACT_TOTALS["wr-inception"]
    assert parsed["comparisons"][0]["ratio"] == pytest.approx(0.944444, abs=1e-5)
    text = report.to_text()
    assert "totals" in text and "ratio 0.9444" in text
