"""Deterministic report writers: GraphML, DOT, CSV and JSON.

All writers emit byte-identical output for identical inputs (sorted keys,
fixed attribute ordering, repr-exact floats), which the CLI relies on for
reproducible runs. Each file is written beside its target and renamed onto
it, so a writer that fails midway never leaves a half-written report.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .graph import KnowledgeGraph, ProjectedGraph


@contextmanager
def _replacing(path):
    """Text handle on a temporary file beside ``path`` that is moved onto
    ``path`` only once the writer returns, so a writer that raises leaves
    the earlier file (or none) in place and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def _escape(text: str) -> str:
    """``text`` with &, < and > as entities, as ``xml.sax.saxutils.escape``
    gives it (that module imports ``urllib`` and ``email`` on load)."""
    if "&" in text or "<" in text or ">" in text:
        text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text


def _quoteattr(text: str) -> str:
    """``text`` escaped and quoted as an attribute value, as
    ``xml.sax.saxutils.quoteattr`` gives it."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' in text and "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _attr_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "long"
    if isinstance(value, float):
        return "double"
    return "string"


def _attr_str(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return ";".join(str(v) for v in sorted(value))
    return str(value)


def write_graphml(path, nodes: dict[str, dict], edges: list[tuple[str, str, dict]],
                  directed: bool) -> None:
    """Write a graph with scalar node/edge attributes as GraphML (edges join keys of ``nodes``)."""
    node_keys = sorted({k for attrs in nodes.values() for k in attrs})
    edge_keys = sorted({k for _, _, attrs in edges for k in attrs})
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    key_types: dict[tuple[str, str], str] = {}
    for domain, keys, sample in (("node", node_keys, nodes.values()),
                                 ("edge", edge_keys, [a for _, _, a in edges])):
        for k in keys:
            value = next((attrs[k] for attrs in sample if k in attrs and attrs[k] is not None), "")
            t = _attr_type(value)
            key_types[(domain, k)] = t
            lines.append(f'  <key id="{domain[0]}_{k}" for="{domain}" '
                         f'attr.name={_quoteattr(k)} attr.type="{t}"/>')
    kind = "directed" if directed else "undirected"
    lines.append(f'  <graph edgedefault="{kind}">')
    node_ids = {node: _quoteattr(node) for node in nodes}
    for node in sorted(nodes):
        attrs = nodes[node]
        lines.append(f'    <node id={node_ids[node]}>')
        for k in sorted(attrs):
            if attrs[k] is None:
                continue
            lines.append(f'      <data key="n_{k}">{_escape(_attr_str(attrs[k]))}</data>')
        lines.append('    </node>')
    for u, v, attrs in sorted(edges, key=lambda e: (e[0], e[1])):
        lines.append(f'    <edge source={node_ids[u]} target={node_ids[v]}>')
        for k in sorted(attrs):
            if attrs[k] is None:
                continue
            lines.append(f'      <data key="e_{k}">{_escape(_attr_str(attrs[k]))}</data>')
        lines.append('    </edge>')
    lines.append('  </graph>')
    lines.append('</graphml>')
    write_text(path, "\n".join(lines) + "\n")


def _dot_id(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(path, nodes: dict[str, dict], edges: list[tuple[str, str, dict]],
              directed: bool) -> None:
    arrow = "->" if directed else "--"
    lines = [("digraph" if directed else "graph") + " G {"]
    for node in sorted(nodes):
        attrs = nodes[node]
        label_bits = [f"{k}={_attr_str(v)}" for k, v in sorted(attrs.items()) if v is not None]
        if label_bits:
            lines.append(f'  {_dot_id(node)} [label={_dot_id(node + chr(10) + " ".join(label_bits))}];')
        else:
            lines.append(f'  {_dot_id(node)};')
    for u, v, attrs in sorted(edges, key=lambda e: (e[0], e[1])):
        w = attrs.get("weight")
        suffix = f' [weight={_attr_str(w)}]' if w is not None else ""
        lines.append(f'  {_dot_id(u)} {arrow} {_dot_id(v)}{suffix};')
    lines.append("}")
    write_text(path, "\n".join(lines) + "\n")


def kg_to_graphml(path, kg: KnowledgeGraph) -> None:
    nodes = {}
    for ref in sorted(kg.nodes):
        attrs = kg.nodes[ref]
        nodes[f"{ref.node_type}:{ref.key}"] = {
            "node_type": ref.node_type,
            "year": attrs.get("year"),
            "name": attrs.get("name") or attrs.get("title"),
        }
    edges = [
        (f"{e.src.node_type}:{e.src.key}", f"{e.dst.node_type}:{e.dst.key}",
         {"edge_type": e.edge_type, "weight": e.weight, "year": e.year})
        for e in kg.edges
    ]
    write_graphml(path, nodes, edges, directed=True)


def kg_to_dot(path, kg: KnowledgeGraph) -> None:
    nodes = {f"{ref.node_type}:{ref.key}": {} for ref in sorted(kg.nodes)}
    edges = [
        (f"{e.src.node_type}:{e.src.key}", f"{e.dst.node_type}:{e.dst.key}",
         {"weight": e.weight})
        for e in kg.edges
    ]
    write_dot(path, nodes, edges, directed=True)


def projected_to_graphml(path, pg: ProjectedGraph) -> None:
    nodes = {u: dict(pg.nodes[u]) for u in sorted(pg.nodes)}
    edges = [(u, v, {k: val for k, val in attrs.items() if not isinstance(val, (tuple, frozenset))})
             for (u, v), attrs in sorted(pg.edges.items())]
    write_graphml(path, nodes, edges, directed=pg.directed)


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n")
