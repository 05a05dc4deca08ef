"""Static cost analysis: exact parameter counts, multiply-accumulate counts,
receptive fields, and per-unit cost comparisons.

MACs (one multiply plus one accumulate) are the canonical unit; FLOPs are
roughly twice that. Convolutions cost C_in*k^2*C_out per output position and
dense layers D_in*D_out per sample. Normalization, activations, pooling, and
joins carry zero MACs; their work is reported separately as elementwise op
counts so the headline number isolates convolution cost.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from .blocks import UnitSpec, build_standalone_unit
from .graph import OPS, NetworkGraph


@dataclass
class NodeCost:
    name: str
    op: str
    param_count: int
    mac_count: int
    elementwise_ops: int
    output_shape: tuple[int, ...]
    receptive_field: int
    stride_product: int


@dataclass
class CostReport:
    network: str
    input_shape: tuple[int, int, int]
    per_node: list[NodeCost]
    total_params: int
    total_macs: int
    total_elementwise: int
    comparisons: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "input_shape": list(self.input_shape),
            "per_node": [asdict(n) for n in self.per_node],
            "totals": {
                "params": self.total_params,
                "macs": self.total_macs,
                "elementwise_ops": self.total_elementwise,
            },
            "comparisons": self.comparisons,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        head = f"{'node':<42}{'op':<12}{'params':>12}{'macs':>16}{'out shape':>16}{'rf':>6}{'s':>4}"
        lines = [f"network: {self.network}  input: {self.input_shape}", head,
                 "-" * len(head)]
        for n in self.per_node:
            shape = "x".join(str(d) for d in n.output_shape)
            lines.append(
                f"{n.name:<42}{n.op:<12}{n.param_count:>12,}{n.mac_count:>16,}"
                f"{shape:>16}{n.receptive_field:>6}{n.stride_product:>4}")
        lines.append("-" * len(head))
        lines.append(
            f"{'totals':<54}{self.total_params:>12,}{self.total_macs:>16,}")
        lines.append(f"elementwise ops (norm/affine_relu/pool/join): {self.total_elementwise:,}")
        for c in self.comparisons:
            lines.append(
                f"unit cost: {c['a']} = {c['macs_a']:,} MACs/position vs "
                f"{c['b']} = {c['macs_b']:,} -> ratio {c['ratio']:.4f}")
        return "\n".join(lines)


def count_parameters(graph: NetworkGraph) -> tuple[int, dict[str, int]]:
    """Exact count of learnable scalars; batch-norm running stats excluded."""
    per_node = {graph.input_name: 0}
    for name in graph.order[1:]:
        node = graph.nodes[name]
        per_node[name] = sum(a.size for a in OPS[node.op].params(node).values())
    return sum(per_node.values()), per_node


def count_macs(graph: NetworkGraph, input_hw: tuple[int, int]
               ) -> tuple[int, dict[str, int], dict[str, int]]:
    """Per-sample MAC counts plus elementwise op counts, from static shapes."""
    shapes = graph.infer_shapes(input_hw)
    macs = {graph.input_name: 0}
    elementwise = {graph.input_name: 0}
    for name in graph.order[1:]:
        node = graph.nodes[name]
        out_c, out_h, out_w = shapes[name]
        # weight size x output positions: C_in*k^2*C_out*H*W (conv), D_in*D_out (fc)
        weight = OPS[node.op].params(node).get("weight")
        macs[name] = 0 if weight is None else weight.size * out_h * out_w
        elementwise[name] = out_c * out_h * out_w if weight is None else 0
    return sum(macs.values()), macs, elementwise


def unit_macs_per_position(spec: UnitSpec) -> int:
    """Convolution MACs per output position at stride 1 (the sum of every
    conv's weight-element count across the unit, projections included)."""
    g, _ = build_standalone_unit(replace(spec, stride=1))
    return count_macs(g, (1, 1))[0]


def compare_unit_cost(a: UnitSpec, b: UnitSpec) -> float:
    """Ratio of per-position conv MACs, macs(a) / macs(b)."""
    return unit_macs_per_position(a) / unit_macs_per_position(b)


def analyze(graph: NetworkGraph, input_hw: Optional[tuple[int, int]] = None,
            comparisons: Optional[list[tuple[UnitSpec, UnitSpec]]] = None) -> CostReport:
    if input_hw is None:
        input_hw = (32, 32)
    shapes = graph.infer_shapes(input_hw)
    rf_map = graph.receptive_field_map(input_hw)
    total_params, params = count_parameters(graph)
    total_macs, macs, elementwise = count_macs(graph, input_hw)
    per_node = []
    for name in graph.order:
        node = graph.nodes[name]
        rf, sp, _ = rf_map[name]
        per_node.append(NodeCost(
            name=name, op=node.op, param_count=params[name], mac_count=macs[name],
            elementwise_ops=elementwise[name], output_shape=shapes[name],
            receptive_field=rf, stride_product=sp))
    comp_records = []
    for a, b in comparisons or []:
        ma, mb = unit_macs_per_position(a), unit_macs_per_position(b)
        comp_records.append({
            "a": f"{a.variant}{list(a.widths)}",
            "b": f"{b.variant}{list(b.widths)}",
            "macs_a": ma, "macs_b": mb, "ratio": ma / mb,
        })
    return CostReport(
        network=graph.name,
        input_shape=(graph.nodes[graph.input_name].channels, *input_hw),
        per_node=per_node,
        total_params=total_params,
        total_macs=total_macs,
        total_elementwise=sum(n.elementwise_ops for n in per_node),
        comparisons=comp_records,
    )
