"""The durable graph store: snapshots, an append-only journal, compaction.

``GraphStore`` persists :class:`EdgeLabeledGraph` / :class:`PropertyGraph`
instances in one SQLite file (WAL mode) per data directory.  The lifecycle:

* :meth:`put_graph` writes a full **snapshot** (nodes/edges tables) in one
  transaction and clears the graph's journal;
* :meth:`attach` installs a journal sink on a live graph, so in-place
  mutations (``add_edge``, property writes) are captured as records in a
  per-graph buffer;
* :meth:`flush` group-commits buffered records as one journal batch row —
  the durability barrier the server invokes per mutation request and on
  drain.  The mutating thread only pays the in-memory record append; JSON
  encoding and the SQLite transaction are amortized over the batch;
* :meth:`load_graph` rebuilds ``snapshot ⊕ journal`` and stamps the graph
  with the durable version, so answer-cache keys derived from
  ``graph.version`` stay coherent across restarts;
* :meth:`compact` folds the journal tail into the snapshot tables *in
  place* (triggered automatically once the journal exceeds
  ``compact_every`` batches): one transaction inserts the rows the tail
  adds, rewrites the rows it changes and deletes the journal rows, so its
  cost follows the tail, not the graph.

What a journal record does to stored rows — endpoints created on demand,
node labels refined, properties merged — is stated once, in
:func:`fold_records`; every reader of ``snapshot ⊕ journal`` short of a
full replay (:meth:`read_nodes`, :meth:`read_segment`,
:meth:`label_counts`, :meth:`graph_info`) and :meth:`compact` go through
it, so compaction cannot drift from what the readers saw before it.
:meth:`load_graph` is the independent statement: it replays the records
through the graph's own mutators.

Crash safety: a batch commits atomically or not at all, so ``kill -9``
leaves a consistent *prefix* of the mutation history — no torn edges, and
``graphs.version`` (updated in the same transaction as each batch) stays
monotone.  A compaction commits the folded rows and the journal deletion
together or not at all, so ``snapshot ⊕ journal`` is the same graph before,
after and across a crash in the middle.  Two fault sites prove it:
``storage.journal_write`` sits before the batch commit (an injected
failure leaves the buffer intact for retry) and ``storage.compact`` inside
the fold transaction (an injected failure rolls the fold back and leaves
the journal in place).
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time

from repro.engine.faults import fault_point
from repro.errors import StorageError
from repro.graph.edge_labeled import EdgeLabeledGraph
from repro.graph.property_graph import PropertyGraph
from repro.storage import schema
from repro.storage.schema import decode, decode_props, encode, encode_props

#: Journal ops (the graph layer emits exactly these).
_OPS = ("add_node", "add_edge", "set_property")


def apply_record(graph: EdgeLabeledGraph, op: str, payload: tuple) -> None:
    """Apply one journal record to a live graph (replay path)."""
    if op == "add_edge":
        edge, src, tgt, label, props = payload
        if isinstance(graph, PropertyGraph):
            graph.add_edge(edge, src, tgt, label, properties=props)
        else:
            graph.add_edge(edge, src, tgt, label)
    elif op == "add_node":
        node, label, props = payload
        if isinstance(graph, PropertyGraph):
            graph.add_node(node, label=label, properties=props)
        else:
            graph.add_node(node)
    elif op == "set_property":
        obj, name, value = payload
        graph.set_property(obj, name, value)
    else:  # pragma: no cover - journal corruption guard
        raise StorageError(f"unknown journal op {op!r}")


def fold_records(records, nodes: dict, edges: dict, default_label) -> None:
    """Apply journal records to stored-row dicts, in place.

    ``nodes`` maps id -> ``[label, props]`` and ``edges`` maps id ->
    ``[src, tgt, label, props]`` (``props`` a dict or ``None``).  The dicts
    are the caller's window on the snapshot: a record that names an id the
    window lacks creates the row, exactly as replaying it on a graph
    without that object would, so the window must hold every snapshot row
    the caller cares about that the records touch.  A ``set_property`` on
    an id outside the window is ignored.  ``default_label`` is the label
    of a node created without one (``None`` for edge-labeled graphs).
    """
    for op, payload, _version in records:
        if op == "add_node":
            node, label, props = payload
            entry = nodes.setdefault(node, [default_label, None])
            if label is not None:
                entry[0] = label
            if props:
                entry[1] = {**(entry[1] or {}), **props}
        elif op == "add_edge":
            edge, src, tgt, label, props = payload
            nodes.setdefault(src, [default_label, None])
            nodes.setdefault(tgt, [default_label, None])
            edges[edge] = [src, tgt, label, dict(props) if props else None]
        elif op == "set_property":
            obj, prop_name, value = payload
            entry = nodes.get(obj) or edges.get(obj)
            if entry is not None:
                entry[-1] = {**(entry[-1] or {}), prop_name: value}
        else:  # pragma: no cover - journal corruption guard
            raise StorageError(f"unknown journal op {op!r}")


def _node_row(name: str, node, entry: list) -> tuple:
    """A ``nodes`` table row (edge-labeled graphs store no node label)."""
    label, props = entry
    return (
        name,
        encode(node),
        encode(label) if label is not None else None,
        encode_props(props),
    )


def _edge_row(name: str, edge, entry: list) -> tuple:
    src, tgt, label, props = entry
    return (
        name, encode(edge), encode(src), encode(tgt), encode(label),
        encode_props(props),
    )


def _node_entry(label: "str | None", props: "str | None") -> list:
    """The :func:`fold_records` entry of a stored ``nodes`` row."""
    return [decode(label) if label is not None else None, decode_props(props)]


def _default_node_label(kind: str):
    return PropertyGraph.DEFAULT_NODE_LABEL if kind == "property" else None


def _payload_to_json(op: str, payload: tuple) -> list:
    """Journal payload -> JSON-safe list (property dicts become pair lists)."""
    if op == "add_edge":
        edge, src, tgt, label, props = payload
        return [edge, src, tgt, label, _props_to_json(props)]
    if op == "add_node":
        node, label, props = payload
        return [node, label, _props_to_json(props)]
    return list(payload)


def _payload_from_json(op: str, payload: list) -> tuple:
    if op == "add_edge":
        edge, src, tgt, label, props = payload
        return (edge, src, tgt, label, _props_from_json(props))
    if op == "add_node":
        node, label, props = payload
        return (node, label, _props_from_json(props))
    return tuple(payload)


def _props_to_json(props: "dict | None") -> "list | None":
    if not props:
        return None
    return [[name, value] for name, value in props.items()]


def _props_from_json(items: "list | None") -> "dict | None":
    if items is None:
        return None
    return {name: value for name, value in items}


class GraphStore:
    """One SQLite-backed store per data directory (``<data_dir>/repro.db``).

    Thread safety: one connection shared across threads behind an RLock
    (the server's worker pool flushes and reads concurrently).  Journal
    *emission* is deliberately lock-free — ``list.append`` on the per-graph
    buffer — so attached graphs pay near-nothing per mutation; only the
    flush/commit path takes the lock.

    ``data_dir=":memory:"`` backs the store with an in-memory database
    (property-based tests spin up hundreds of stores).
    """

    DB_FILENAME = "repro.db"

    def __init__(
        self,
        data_dir: str,
        *,
        flush_every: int = 1024,
        compact_every: int = 64,
        timeout: float = 30.0,
    ) -> None:
        self.data_dir = data_dir
        #: buffered records reaching this count trigger an automatic flush
        self.flush_every = flush_every
        #: journal batches reaching this count trigger auto-compaction
        self.compact_every = compact_every
        if data_dir == ":memory:":
            self.path = ":memory:"
        else:
            os.makedirs(data_dir, exist_ok=True)
            self.path = os.path.join(data_dir, self.DB_FILENAME)
        self._lock = threading.RLock()
        self._buffers: dict[str, list] = {}
        self._closed = False
        #: what this process has written so far (see :meth:`counters`)
        self._counters = {
            "flushes": 0,
            "records_flushed": 0,
            "compactions": 0,
            "records_folded": 0,
            "compact_seconds_last": 0.0,
            "compact_seconds_total": 0.0,
        }
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(schema.DDL)
        with self._conn:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta VALUES ('schema_version', ?)",
                    (str(schema.SCHEMA_VERSION),),
                )
            elif int(row[0]) != schema.SCHEMA_VERSION:
                raise StorageError(
                    f"store at {self.path} has schema version {row[0]}, "
                    f"this build expects {schema.SCHEMA_VERSION}"
                )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def put_graph(self, name: str, graph: EdgeLabeledGraph) -> dict:
        """Write a full snapshot of ``graph``, replacing any prior state.

        The import/upload path (compaction does not come through here).
        One transaction: manifest row, node rows, edge rows, journal
        cleared.  The durable version is ``graph.version`` verbatim, so a
        later :meth:`load_graph` hands back a graph whose answer-cache key
        matches the one that was stored.

        A replacement also discards any buffered journal records for the
        name (they described the graph being replaced).
        """
        is_property = isinstance(graph, PropertyGraph)
        kind = "property" if is_property else "edge_labeled"
        node_rows = [
            _node_row(
                name,
                node,
                [graph.node_label(node), graph.properties(node)]
                if is_property
                else [None, None],
            )
            for node in graph.iter_nodes()
        ]
        edge_rows = [
            _edge_row(
                name,
                edge,
                [src, tgt, label, graph.properties(edge) if is_property else None],
            )
            for edge, src, tgt, label in graph.iter_edge_records()
        ]
        with self._lock:
            self._check_open()
            buffer = self._buffers.get(name)
            if buffer is not None:
                buffer.clear()
            with self._conn:
                self._conn.execute("DELETE FROM nodes WHERE graph=?", (name,))
                self._conn.execute("DELETE FROM edges WHERE graph=?", (name,))
                self._conn.execute("DELETE FROM journal WHERE graph=?", (name,))
                self._conn.executemany(
                    "INSERT INTO nodes VALUES (?,?,?,?)", node_rows
                )
                self._conn.executemany(
                    "INSERT INTO edges VALUES (?,?,?,?,?,?)", edge_rows
                )
                self._conn.execute(
                    "INSERT OR REPLACE INTO graphs VALUES (?,?,?,?,?,?)",
                    (
                        name,
                        kind,
                        graph.version,
                        graph.version,
                        len(node_rows),
                        len(edge_rows),
                    ),
                )
        return self.graph_info(name)

    def load_graph(self, name: str) -> EdgeLabeledGraph:
        """Rebuild ``snapshot ⊕ journal`` and stamp the durable version."""
        with self._lock:
            self._check_open()
            row = self._manifest_row(name)
            kind, version, _snapshot_version = row[1], row[2], row[3]
            is_property = kind == "property"
            graph: EdgeLabeledGraph = (
                PropertyGraph() if is_property else EdgeLabeledGraph()
            )
            for _, id_, label, props in self._conn.execute(
                "SELECT graph, id, label, props FROM nodes WHERE graph=?", (name,)
            ):
                if is_property:
                    graph.add_node(
                        decode(id_),
                        label=decode(label),
                        properties=decode_props(props),
                    )
                else:
                    graph.add_node(decode(id_))
            for id_, src, tgt, label, props in self._conn.execute(
                "SELECT id, src, tgt, label, props FROM edges WHERE graph=?",
                (name,),
            ):
                if is_property:
                    graph.add_edge(
                        decode(id_),
                        decode(src),
                        decode(tgt),
                        decode(label),
                        properties=decode_props(props),
                    )
                else:
                    graph.add_edge(
                        decode(id_), decode(src), decode(tgt), decode(label)
                    )
            for op, payload, _record_version in self._journal_tail(name):
                apply_record(graph, op, payload)
        # The replayed graph must report the exact durable version: derived
        # caches (answer cache, CSR) key on it across restarts.
        graph._version = version
        return graph

    def delete_graph(self, name: str) -> None:
        with self._lock:
            self._check_open()
            self._manifest_row(name)
            buffer = self._buffers.get(name)
            if buffer is not None:
                buffer.clear()
            with self._conn:
                self._conn.execute("DELETE FROM graphs WHERE name=?", (name,))
                for table in ("nodes", "edges", "journal"):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE graph=?", (name,)
                    )

    # ------------------------------------------------------------------
    # manifest / reads
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT name FROM graphs ORDER BY name"
            ).fetchall()
        return [row[0] for row in rows]

    def graph_info(self, name: str) -> dict:
        """Manifest entry: kind, durable version, exact object counts.

        Snapshot counts are stored; the journal tail is folded over the
        rows it touches to count the net new objects it adds (the tail is
        bounded by ``compact_every``).
        """
        with self._lock:
            self._check_open()
            row = self._manifest_row(name)
            _, kind, version, snapshot_version, node_count, edge_count = row
            tail = self._journal_tail(name)
            journal_records = len(tail)
            if tail:
                _, _, new_nodes, new_edges = self._fold_tail(name, kind, tail)
                node_count += new_nodes
                edge_count += new_edges
        return {
            "name": name,
            "kind": kind,
            "version": version,
            "snapshot_version": snapshot_version,
            "nodes": node_count,
            "edges": edge_count,
            "journal_records": journal_records,
            "pending_records": len(self._buffers.get(name, ())),
        }

    def manifest(self) -> list[dict]:
        return [self.graph_info(name) for name in self.names()]

    def label_counts(self, name: str) -> dict:
        """Edge count per label (snapshot plus journal tail)."""
        with self._lock:
            self._check_open()
            self._manifest_row(name)
            counts: dict = {}
            for label, count in self._conn.execute(
                "SELECT label, COUNT(*) FROM edges WHERE graph=? GROUP BY label",
                (name,),
            ):
                counts[decode(label)] = count
            added: dict = {}
            fold_records(self._journal_tail(name), {}, added, None)
            for _src, _tgt, label, _props in added.values():
                counts[label] = counts.get(label, 0) + 1
        return counts

    def labels(self, name: str) -> frozenset:
        return frozenset(self.label_counts(name))

    def read_nodes(self, name: str) -> list[tuple]:
        """Final ``(id, label, props)`` records: snapshot ⊕ journal refinements.

        Nodes are always fully resident in a lazy handle (they bound the
        reachability questions every query asks), so this applies node-side
        journal effects — new nodes, label refinements, property merges,
        auto-created edge endpoints — without touching edge segments.
        """
        with self._lock:
            self._check_open()
            kind = self._manifest_row(name)[1]
            nodes: dict = {}
            for id_, label, props in self._conn.execute(
                "SELECT id, label, props FROM nodes WHERE graph=?", (name,)
            ):
                nodes[decode(id_)] = _node_entry(label, props)
            fold_records(
                self._journal_tail(name), nodes, {}, _default_node_label(kind)
            )
        return [(node, label, props) for node, (label, props) in nodes.items()]

    def read_segment(self, name: str, label) -> list[tuple]:
        """All ``(id, src, tgt, label, props)`` edges carrying ``label``.

        The label-partitioned read backing lazy segment faulting: an
        indexed snapshot scan plus the (bounded) journal tail.
        """
        with self._lock:
            self._check_open()
            self._manifest_row(name)
            edges: dict = {}
            for id_, src, tgt, props in self._conn.execute(
                "SELECT id, src, tgt, props FROM edges WHERE graph=? AND label=?",
                (name, encode(label)),
            ):
                edges[decode(id_)] = [
                    decode(src), decode(tgt), label, decode_props(props)
                ]
            # The journal's edges of other labels join the window and are
            # filtered out again below (the tail is bounded).
            fold_records(self._journal_tail(name), {}, edges, None)
        return [
            (edge, src, tgt, label, props)
            for edge, (src, tgt, edge_label, props) in edges.items()
            if edge_label == label
        ]

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    def attach(self, name: str, graph: EdgeLabeledGraph) -> None:
        """Install the write-through journal sink on a live graph.

        The sink is a closure appending ``(op, payload, version)`` tuples to
        the graph's buffer — no lock, no encoding, no I/O on the mutation
        hot path.  Once the buffer reaches ``flush_every`` records the next
        mutation triggers a group commit.
        """
        with self._lock:
            self._check_open()
            self._manifest_row(name)
            buffer = self._buffers.setdefault(name, [])
        flush_every = self.flush_every
        append = buffer.append

        def record(op, payload, version):
            append((op, payload, version))
            if len(buffer) >= flush_every:
                self.flush(name)

        graph.attach_journal(record)

    def pending(self, name: str) -> int:
        return len(self._buffers.get(name, ()))

    def flush(self, name: "str | None" = None, *, _compact: bool = True) -> int:
        """Group-commit buffered journal records; the durability barrier.

        Returns the number of records made durable.  All-or-nothing: the
        buffer is only drained after the batch commits, so an injected
        failure at ``storage.journal_write`` (or a crash) leaves every
        buffered record in place for the next flush.
        """
        if name is None:
            with self._lock:
                names = list(self._buffers)
            return sum(self.flush(n) for n in names)
        buffer = self._buffers.get(name)
        if not buffer:
            return 0
        with self._lock:
            self._check_open()
            count = len(buffer)
            if count == 0:
                return 0
            items = buffer[:count]
            if fault_point("storage.journal_write"):
                # Injected "write lost" drop: nothing durable, nothing drained.
                return 0
            batch = [
                [op, _payload_to_json(op, payload), version]
                for op, payload, version in items
            ]
            last_version = items[-1][2]
            with self._conn:
                (next_seq,) = self._conn.execute(
                    "SELECT COALESCE(MAX(seq), -1) + 1 FROM journal WHERE graph=?",
                    (name,),
                ).fetchone()
                self._conn.execute(
                    "INSERT INTO journal VALUES (?,?,?,?,?)",
                    (name, next_seq, encode(batch), last_version, count),
                )
                self._conn.execute(
                    "UPDATE graphs SET version=? WHERE name=?",
                    (last_version, name),
                )
            del buffer[:count]
            batches = next_seq + 1
            self._counters["flushes"] += 1
            self._counters["records_flushed"] += count
        if _compact and self.compact_every and batches >= self.compact_every:
            self.compact(name)
        return count

    def journal_rows(self, name: str) -> int:
        with self._lock:
            self._check_open()
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM journal WHERE graph=?", (name,)
            ).fetchone()
        return count

    def compact(self, name: str) -> dict:
        """Fold the journal tail into the snapshot tables (version unchanged).

        One transaction writes the node and edge rows the tail adds or
        changes (untouched rows are not read, let alone rewritten), deletes
        the journal rows and moves the manifest's counts and
        ``snapshot_version`` forward: it commits whole or, on a failure or a
        crash, not at all, and either way ``snapshot ⊕ journal`` is the
        same graph.  The ``storage.compact`` fault site sits after the row
        writes, before the journal is deleted.

        Records buffered *during* compaction survive: the buffer is not
        touched, so anything appended after the flush below simply lands
        in the next batch.
        """
        with self._lock:
            self._check_open()
            self.flush(name, _compact=False)
            started = time.perf_counter()
            _, kind, version, _, node_count, edge_count = self._manifest_row(name)
            tail = self._journal_tail(name)
            node_rows, edge_rows, new_nodes, new_edges = self._fold_tail(
                name, kind, tail
            )
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO nodes VALUES (?,?,?,?)", node_rows
                )
                self._conn.executemany(
                    "INSERT OR REPLACE INTO edges VALUES (?,?,?,?,?,?)", edge_rows
                )
                fault_point("storage.compact")
                self._conn.execute("DELETE FROM journal WHERE graph=?", (name,))
                self._conn.execute(
                    "UPDATE graphs SET snapshot_version=?, nodes=?, edges=? "
                    "WHERE name=?",
                    (version, node_count + new_nodes, edge_count + new_edges, name),
                )
            seconds = time.perf_counter() - started
            self._counters["compactions"] += 1
            self._counters["records_folded"] += len(tail)
            self._counters["compact_seconds_last"] = seconds
            self._counters["compact_seconds_total"] += seconds
            return self.graph_info(name)

    def counters(self) -> dict:
        """What this process's store has written: committed journal batches
        (``flushes``, ``records_flushed``), compactions (``compactions``,
        ``records_folded``) and the wall seconds of the last and of all
        compactions."""
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush every buffer and close the database (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self.flush()
            self._closed = True
            self._conn.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"store at {self.path} is closed")

    def _manifest_row(self, name: str) -> tuple:
        row = self._conn.execute(
            "SELECT name, kind, version, snapshot_version, nodes, edges "
            "FROM graphs WHERE name=?",
            (name,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no graph named {name!r} in store {self.path}")
        return row

    def _fold_tail(self, name: str, kind: str, records: list) -> tuple:
        """Fold journal ``records`` over the snapshot rows they touch.

        Returns ``(node_rows, edge_rows, new_nodes, new_edges)``: the table
        rows the records add or change, ready to insert-or-replace, and how
        many of them are additions.  Reads one row per id the records name,
        never the whole table.
        """
        touched: set = set()
        for op, payload, _version in records:
            if op == "add_edge":
                touched.update(payload[1:3])  # endpoints; the edge id is fresh
            else:
                touched.add(payload[0])  # add_node's node, set_property's object
        nodes: dict = {}
        edges: dict = {}
        stored: dict = {}  # encoded id -> the table row the snapshot holds
        for obj in touched:
            key = encode(obj)
            row = self._conn.execute(
                "SELECT label, props FROM nodes WHERE graph=? AND id=?", (name, key)
            ).fetchone()
            if row is not None:
                nodes[obj] = _node_entry(*row)
            else:
                row = self._conn.execute(
                    "SELECT src, tgt, label, props FROM edges WHERE graph=? AND id=?",
                    (name, key),
                ).fetchone()
                if row is None:
                    continue  # not in the snapshot: a record creates it
                src, tgt, label, props = row
                edges[obj] = [
                    decode(src), decode(tgt), decode(label), decode_props(props)
                ]
            stored[key] = (name, key, *row)
        fold_records(records, nodes, edges, _default_node_label(kind))
        node_rows = [_node_row(name, node, entry) for node, entry in nodes.items()]
        edge_rows = [_edge_row(name, edge, entry) for edge, entry in edges.items()]
        return (
            [row for row in node_rows if stored.get(row[1]) != row],
            [row for row in edge_rows if stored.get(row[1]) != row],
            sum(row[1] not in stored for row in node_rows),
            sum(row[1] not in stored for row in edge_rows),
        )

    def _journal_tail(self, name: str) -> list[tuple]:
        records: list[tuple] = []
        for (batch_text,) in self._conn.execute(
            "SELECT batch FROM journal WHERE graph=? ORDER BY seq", (name,)
        ):
            for op, payload, version in decode(batch_text):
                records.append((op, _payload_from_json(op, payload), version))
        return records
