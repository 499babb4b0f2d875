"""JSON (de)serialization for graphs.

The format is a straightforward document::

    {
      "kind": "property",              # or "edge_labeled"
      "nodes": [{"id": ..., "label": ..., "properties": {...}}, ...],
      "edges": [{"id": ..., "src": ..., "tgt": ..., "label": ...,
                 "properties": {...}}, ...]
    }

Only JSON-representable ids, labels and values survive a round-trip; that is
all the datasets and generators in this library produce.

Property maps need one wrinkle: ``rho``'s domain is *hashable names*, not
strings, but a JSON object coerces every key to a string (``{1: "x"}``
serializes as ``{"1": "x"}``).  Whenever an object carries a non-string
property name the serializer therefore emits ``"property_items"`` — a list
of ``[name, value]`` pairs, which JSON preserves exactly — instead of a
``"properties"`` object.  The reader accepts both spellings (preferring
``property_items``), so documents written by older versions still load.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any

from repro.errors import GraphError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph


_SCALARS = (str, int, float, bool)
_SCALARS_OR_NULL = (*_SCALARS, type(None))
#: Each record list's fields that must be JSON scalars or null, and their
#: one-call read (a node's ``label`` is optional, an edge's fields are not).
_FIELDS = {
    "nodes": (("id", "label"), lambda record: (record["id"], record.get("label"))),
    "edges": (("id", "src", "tgt", "label"), itemgetter("id", "src", "tgt", "label")),
}


def is_json_scalar(value) -> bool:
    """A string, number or boolean: what a node id or label can be."""
    return isinstance(value, _SCALARS)


def _records(document: dict[str, Any], key: str):
    """``(index, record, its _FIELDS values)`` for each record under ``key``;
    anything else than a list of such objects is a :class:`GraphError`."""
    records = document.get(key, [])
    if not isinstance(records, list):
        raise GraphError(f"field {key!r} must be a list")
    names, read = _FIELDS[key]
    for index, record in enumerate(records):
        try:
            values = read(record)
        except (KeyError, TypeError) as exc:
            if not isinstance(record, dict):
                raise GraphError(f"{key}[{index}] must be an object") from None
            raise GraphError(f"{key}[{index}]: missing field {exc.args[0]!r}") from None
        for value in values:
            if not isinstance(value, _SCALARS_OR_NULL):
                name = names[values.index(value)]
                raise GraphError(
                    f"{key}[{index}]: field {name!r} must be a JSON scalar"
                )
        yield index, record, values


def _set_properties(record: dict[str, Any], props: dict[Any, Any]) -> None:
    if all(isinstance(name, str) for name in props):
        record["properties"] = props
    else:
        record["property_items"] = [[name, value] for name, value in props.items()]


def _get_properties(record: dict[str, Any], key: str, index: int) -> dict | None:
    items = record.get("property_items")
    properties = record.get("properties") if items is None else items
    try:
        return None if properties is None else dict(properties)
    except (TypeError, ValueError):
        raise GraphError(f"{key}[{index}]: malformed property map") from None


def graph_to_dict(graph: EdgeLabeledGraph) -> dict[str, Any]:
    """Serialize a graph to a JSON-compatible dictionary."""
    is_property = isinstance(graph, PropertyGraph)
    nodes = []
    for node in sorted(graph.iter_nodes(), key=repr):
        record: dict[str, Any] = {"id": node}
        if is_property:
            record["label"] = graph.node_label(node)
            props = graph.properties(node)
            if props:
                _set_properties(record, props)
        nodes.append(record)
    edges = []
    for edge in sorted(graph.iter_edges(), key=repr):
        src, tgt = graph.endpoints(edge)
        record = {"id": edge, "src": src, "tgt": tgt, "label": graph.label(edge)}
        if is_property:
            props = graph.properties(edge)
            if props:
                _set_properties(record, props)
        edges.append(record)
    return {
        "kind": "property" if is_property else "edge_labeled",
        "nodes": nodes,
        "edges": edges,
    }


def graph_from_dict(document: dict[str, Any]) -> EdgeLabeledGraph:
    """Deserialize a graph from the dictionary format of :func:`graph_to_dict`.

    A document that is not such a graph raises one :class:`GraphError`
    naming the bad field: a missing field, a ``nodes``/``edges`` value that
    is not a list, a record that is not an object, an id, endpoint or label
    that is not a JSON scalar (or null), or a malformed property map.
    """
    if not isinstance(document, dict):
        raise GraphError("a graph document must be a JSON object")
    kind = document.get("kind", "edge_labeled")
    if kind == "property":
        graph: EdgeLabeledGraph = PropertyGraph()
        for index, record, (node, label) in _records(document, "nodes"):
            properties = _get_properties(record, "nodes", index)
            graph.add_node(node, label=label, properties=properties)
        for index, record, fields in _records(document, "edges"):
            graph.add_edge(*fields, properties=_get_properties(record, "edges", index))
    elif kind == "edge_labeled":
        graph = EdgeLabeledGraph()
        for _index, _record, (node, _label) in _records(document, "nodes"):
            graph.add_node(node)
        for _index, _record, fields in _records(document, "edges"):
            graph.add_edge(*fields)
    else:
        raise GraphError(f"unknown graph kind {kind!r}")
    return graph


def dumps(graph: EdgeLabeledGraph, **json_kwargs: Any) -> str:
    """Serialize a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph), **json_kwargs)


def loads(text: str) -> EdgeLabeledGraph:
    """Deserialize a graph from a JSON string."""
    return graph_from_dict(json.loads(text))
