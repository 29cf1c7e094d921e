"""Annotated DOT export: label and d-sum per node when a labeling is given."""

from __future__ import annotations

from .graph import Graph
from .labeling import Labeling, d_lucky_sums


def to_dot(g: Graph, labeling: Labeling | None = None) -> str:
    """DOT text with node ids v0..v{n-1}; deterministic ordering.

    With a labeling, nodes carry ``label`` and ``dsum`` attributes; vertex
    tags, when present, are exported as ``role``.
    """
    sums = d_lucky_sums(g, labeling) if labeling is not None else None
    lines = ["graph G {"]
    for v in range(g.n):
        attrs = []
        if labeling is not None:
            attrs.append(f'label="{labeling[v]}"')
            attrs.append(f'dsum="{sums[v]}"')
        if g.tags is not None and g.tags[v]:
            role = g.tags[v].replace("\\", "\\\\").replace('"', '\\"')
            attrs.append(f'role="{role}"')
        if attrs:
            lines.append(f"  v{v} [{', '.join(attrs)}];")
        else:
            lines.append(f"  v{v};")
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
