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
from functools import cache
from pathlib import Path
from typing import Iterable

from .graph import NODE_TYPES, KnowledgeGraph, NodeRef, ProjectedGraph


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
    return str(value)


def _data_str(value) -> str:
    return _escape(_attr_str(value))


def _column(values, fmt) -> list[str]:
    """``fmt`` of each of ``values``, called once per distinct value. The
    key holds the type and, at zero, the text, because 1, 1.0 and True, or
    0.0 and -0.0, are equal as keys but format differently."""
    made = cache(lambda kind, value, zero: fmt(value))
    return [made(type(v), v, v == 0 and str(v)) for v in values]


_GRAPHML_HEAD = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                 '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">')


def _key_line(domain: str, key: str, values) -> str:
    """The ``<key>`` line of an attribute, typed by its first value that is not None."""
    t = _attr_type(next((v for v in values if v is not None), ""))
    return (f'  <key id="{domain[0]}_{key}" for="{domain}" '
            f'attr.name={_quoteattr(key)} attr.type="{t}"/>')


def _data_lines(domain: str, attrs: dict) -> list[str]:
    return [f'      <data key="{domain[0]}_{k}">{_data_str(v)}</data>'
            for k, v in sorted(attrs.items()) if v is not None]


def write_graphml(path, nodes: dict[str, dict], edges: list[tuple[str, str, dict]],
                  directed: bool) -> None:
    """Write a graph with scalar node/edge attributes as GraphML (edges join keys of ``nodes``)."""
    node_keys = sorted({k for attrs in nodes.values() for k in attrs})
    edge_keys = sorted({k for _, _, attrs in edges for k in attrs})
    lines = [_GRAPHML_HEAD]
    lines += [_key_line("node", k, (attrs.get(k) for attrs in nodes.values()))
              for k in node_keys]
    lines += [_key_line("edge", k, (attrs.get(k) for _, _, attrs in edges)) for k in edge_keys]
    kind = "directed" if directed else "undirected"
    lines.append(f'  <graph edgedefault="{kind}">')
    node_ids = {node: _quoteattr(node) for node in nodes}
    for node in sorted(nodes):
        lines.append(f'    <node id={node_ids[node]}>')
        lines += _data_lines("node", nodes[node])
        lines.append('    </node>')
    for u, v, attrs in sorted(edges, key=lambda e: (e[0], e[1])):
        lines.append(f'    <edge source={node_ids[u]} target={node_ids[v]}>')
        lines += _data_lines("edge", attrs)
        lines.append('    </edge>')
    lines.append('  </graph>\n</graphml>\n')
    write_text(path, "\n".join(lines))


def _dot_id(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _kg_nodes(kg: KnowledgeGraph, quote) -> tuple[list[NodeRef], dict[NodeRef, str]]:
    """The KG's nodes sorted, and each one's ``type:key`` id through
    ``quote``. No node type is a prefix of another, so sorting refs sorts
    their ids: the per-type lists, joined in type order, are the sorted
    refs, and ``kg.edges``, sorted by endpoints first, is sorted by (source
    id, target id)."""
    refs = [ref for t in sorted(NODE_TYPES) for ref in kg.nodes_of_type(t)]
    return refs, {ref: quote(f"{ref.node_type}:{ref.key}") for ref in refs}


def kg_to_graphml(path, kg: KnowledgeGraph) -> None:
    """The KG as ``write_graphml`` writes it with node attributes name,
    node_type and year and edge attributes edge_type, weight and year,
    written straight from that fixed schema."""
    refs, quoted = _kg_nodes(kg, _quoteattr)
    names = [kg.nodes[ref].get("name") or kg.nodes[ref].get("title") for ref in refs]
    years = [kg.nodes[ref].get("year") for ref in refs]
    lines = [_GRAPHML_HEAD]
    if refs:
        lines += [_key_line("node", "name", names),
                  _key_line("node", "node_type", (ref.node_type for ref in refs)),
                  _key_line("node", "year", years)]
    if kg.edges:
        lines += [_key_line("edge", k, (getattr(e, k) for e in kg.edges))
                  for k in ("edge_type", "weight", "year")]
    lines.append('  <graph edgedefault="directed">')
    for ref, name, year in zip(refs, names, years):
        lines.append(f'    <node id={quoted[ref]}>')
        lines += _data_lines("node", {"name": name, "node_type": ref.node_type, "year": year})
        lines.append('    </node>')
    weights = _column((e.weight for e in kg.edges), _data_str)
    edge_years = _column((e.year for e in kg.edges), _data_str)
    lines += [f'    <edge source={quoted[e.src]} target={quoted[e.dst]}>\n'
              f'      <data key="e_edge_type">{_escape(e.edge_type)}</data>\n'
              f'      <data key="e_weight">{weight}</data>\n'
              f'      <data key="e_year">{year}</data>\n'
              '    </edge>' for e, weight, year in zip(kg.edges, weights, edge_years)]
    lines.append('  </graph>\n</graphml>\n')
    write_text(path, "\n".join(lines))


def kg_to_dot(path, kg: KnowledgeGraph) -> None:
    """The KG as a DOT digraph: its node ids, then its weighted edges in
    the order ``kg_to_graphml`` writes them."""
    refs, quoted = _kg_nodes(kg, _dot_id)
    lines = ["digraph G {"] + [f"  {quoted[ref]};" for ref in refs]
    weights = _column((e.weight for e in kg.edges), _attr_str)
    lines += [f"  {quoted[e.src]} -> {quoted[e.dst]} [weight={weight}];"
              for e, weight in zip(kg.edges, weights)]
    lines.append("}\n")
    write_text(path, "\n".join(lines))


def projected_to_graphml(path, pg: ProjectedGraph) -> None:
    nodes = {u: pg.nodes[u] for u in pg.names}
    edges = [(u, v, attrs) for (u, v), attrs in sorted(pg.edges.items())]
    write_graphml(path, nodes, edges, directed=pg.directed)


def write_csv(path, header: list[str], rows: Iterable[tuple]) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n")
