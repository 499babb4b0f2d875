"""LRU compilation caching for the regex -> NFA (-> DFA) pipeline.

The seed evaluators re-parsed the query string and re-ran the Glushkov
construction on *every* call — for a workload of millions of queries over a
modest query log (Section 6.2's study found most RPQs are tiny and highly
repetitive) that is almost pure waste.  This module adds two LRU caches:

* a **parse cache**: query string -> regex AST;
* a **compilation cache**: ``(regex AST, alphabet)`` -> :class:`CompiledQuery`
  (trimmed Glushkov NFA plus a state-major transition map ready for product
  BFS), with an optional DFA attached on demand.

Keying on the *alphabet* and not just the expression is essential for
Remark 11: a wildcard like ``_`` or ``!{a}`` is instantiated over the
queried graph's label set, so the same expression compiled against two
graphs with different labels yields **different** automata and must not
collide in the cache (``tests/engine/test_cache.py`` locks this in).

Regex ASTs are frozen dataclasses, hence hashable; the AST itself is the
cache key (no fragile string hashing).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable

from repro.automata.glushkov import compile_regex
from repro.automata.nfa import NFA, StateType, SymbolType
from repro.engine.faults import fault_point
from repro.regex.ast import Regex, symbols
from repro.regex.parser import parse_regex


class CompiledQuery:
    """A compiled RPQ, ready for the kernel's product BFS.

    ``delta`` is the NFA's transition function regrouped state-major:
    ``state -> {symbol -> (successor states...)}`` — exactly the shape the
    BFS consumes, so evaluators never rebuild per-call transition dicts.
    """

    __slots__ = (
        "regex", "alphabet", "nfa", "delta", "initial", "finals", "_dfa",
        "_int_plan",
    )

    def __init__(self, regex: Regex, alphabet: frozenset[SymbolType], nfa: NFA):
        self.regex = regex
        self.alphabet = alphabet
        self.nfa = nfa
        delta: dict[StateType, dict[SymbolType, tuple[StateType, ...]]] = {}
        for (source, symbol), targets in nfa._delta.items():
            delta.setdefault(source, {})[symbol] = tuple(targets)
        self.delta = delta
        self.initial = nfa.initial
        self.finals = nfa.finals
        self._dfa = None
        self._int_plan = None

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "CompiledQuery":
        """Wrap an already-built NFA (callers holding one skip compilation)."""
        return cls(None, nfa.alphabet, nfa)

    def dfa(self):
        """The determinized automaton, built once on first request."""
        if self._dfa is None:
            from repro.automata.dfa import determinize

            self._dfa = determinize(self.nfa, alphabet=self.alphabet)
        return self._dfa

    def int_plan(self, interner) -> "IntPlan":
        """This query's transition table lowered into ``interner``'s int space.

        The last plan is memoized on the query, keyed by the interner's
        process-unique ``uid`` — never by graph identity, so a mutated (or
        id-recycled) graph can never be served a table built over another
        label numbering.  The uid names the *label* numbering, the only
        part of the interner a plan reads: a caught-up interner keeps it
        until a label is added, so the memo survives writes that add
        nodes and edges only.  One entry suffices: a compiled query is
        overwhelmingly evaluated against one graph at a time, and a rebuild
        is O(states × labels).  The memo write is a benign race under the
        server's worker pool (worst case: a duplicate lowering).
        """
        cached = self._int_plan
        if cached is not None and cached.interner_uid == interner.uid:
            return cached
        plan = IntPlan(self, interner)
        self._int_plan = plan
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledQuery states={self.nfa.num_states} alphabet={len(self.alphabet)}>"


def number_states(compiled: "CompiledQuery") -> tuple[dict, int, tuple]:
    """The dense int numbering of ``compiled``'s states, and what packs by it.

    ``(state_ids, state_bits, initial)``: each state's position among the
    states sorted by ``repr`` (the dict iterates in that order), the width
    of the state field in a packed product code, and the initial states'
    ints in increasing order.  A pure
    function of the automaton, so every process that compiles the same
    query over the same alphabet packs the same codes: :class:`IntPlan`
    (the kernel, a shard's step) and
    :func:`repro.distributed.frontier.automaton_plan` (the coordinator's
    seeding) both number through here.
    """
    states = sorted(compiled.nfa.states, key=repr)
    state_ids = {state: index for index, state in enumerate(states)}
    state_bits = (len(states) - 1).bit_length() if states else 0
    initial = tuple(sorted(state_ids[state] for state in compiled.initial))
    return state_ids, state_bits, initial


class IntPlan:
    """A :class:`CompiledQuery` lowered into one interner's int space.

    This is the automaton half of the flat data plane: states become dense
    ints ``0..m-1`` (:func:`number_states`), symbols
    become the interner's label ints, finals become a bitmask, and the
    transition function becomes a per-state tuple of
    ``(label_int, next_state_ints)`` rows — exactly what the CSR kernel
    loops consume, with zero hashing of strings or tuples inside the BFS.

    ``state_bits`` is the width of the state field in a packed product code
    ``(node_int << state_bits) | state_int``; a single-state automaton packs
    into zero bits and the code *is* the node int.

    Symbols the graph has no edge for (an ``a`` queried against a ``b``-only
    graph, wildcards instantiated over query-only labels) lower to nothing:
    their transitions can never fire, so they are dropped from the rows.
    """

    __slots__ = (
        "interner_uid",
        "num_states",
        "state_bits",
        "state_mask",
        "initial",
        "finals_mask",
        "delta",
        "state_ids",
    )

    def __init__(self, compiled: "CompiledQuery", interner):
        self.interner_uid = interner.uid
        self.state_ids, self.state_bits, self.initial = number_states(compiled)
        self.num_states = len(self.state_ids)
        self.state_mask = (1 << self.state_bits) - 1
        finals_mask = 0
        for state in compiled.finals:
            finals_mask |= 1 << self.state_ids[state]
        self.finals_mask = finals_mask
        label_id = interner.label_id
        delta = []
        for state in self.state_ids:
            rows = []
            for symbol, successors in compiled.delta.get(state, {}).items():
                label_int = label_id(symbol)
                if label_int is None:
                    continue  # no edge in the graph carries this symbol
                rows.append(
                    (label_int, tuple(self.state_ids[s] for s in successors))
                )
            rows.sort()
            delta.append(tuple(rows))
        self.delta = tuple(delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IntPlan states={self.num_states} bits={self.state_bits} "
            f"interner={self.interner_uid}>"
        )


class CompilationCache:
    """A bounded LRU cache of parsed and compiled queries.

    Eviction is least-recently-*used*: both hits and inserts refresh an
    entry's recency.  ``maxsize`` bounds the compiled-query map; the parse
    cache shares the same bound (entries are tiny).

    The cache is **thread-safe**: the query service executes requests on a
    worker pool that shares the process-wide :data:`DEFAULT_CACHE`, and the
    ``OrderedDict`` recency updates (``move_to_end`` racing ``popitem``)
    corrupt without mutual exclusion.  One lock guards both maps; the
    protected sections are dict operations only — compilation itself runs
    outside the lock would be nicer, but a duplicate Glushkov run is rarer
    and cheaper than the lock dance, so misses compile while holding it.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._compiled: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._parsed: OrderedDict[str, Regex] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.parse_hits = 0
        self.parse_misses = 0

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    def parse(self, text: str, stats=None) -> Regex:
        """Parse (or recall) a regex from source text."""
        with self._lock:
            cached = self._parsed.get(text)
            if cached is not None:
                self._parsed.move_to_end(text)
                self.parse_hits += 1
                if stats is not None:
                    stats.count("parse_hits")
                return cached
            regex = parse_regex(text)
            self.parse_misses += 1
            if stats is not None:
                stats.count("parse_misses")
            self._parsed[text] = regex
            if len(self._parsed) > self.maxsize:
                self._parsed.popitem(last=False)
            return regex

    # ------------------------------------------------------------------
    # compiling
    # ------------------------------------------------------------------
    def compile(
        self,
        query: "Regex | str",
        alphabet: Iterable[SymbolType],
        stats=None,
    ) -> CompiledQuery:
        """The compiled form of ``query`` over ``alphabet`` (cached).

        ``alphabet`` must already include every symbol the automaton may
        need (callers typically pass ``graph.labels | symbols(regex)``).
        """
        regex = self.parse(query, stats) if isinstance(query, str) else query
        key = (regex, frozenset(alphabet))
        with self._lock:
            cached = self._compiled.get(key)
            if cached is not None:
                self._compiled.move_to_end(key)
                self.hits += 1
                if stats is not None:
                    stats.count("cache_hits")
                return cached
            # Fault site on the *fill* path, before any insertion: an
            # injected failure must leave no partial entry behind
            # (tests/chaos assert the next compile succeeds cleanly).
            fault_point("cache.compile")
            compiled = CompiledQuery(
                regex, key[1], compile_regex(regex, alphabet=key[1])
            )
            self.misses += 1
            if stats is not None:
                stats.count("cache_misses")
            self._compiled[key] = compiled
            if len(self._compiled) > self.maxsize:
                self._compiled.popitem(last=False)
                self.evictions += 1
            return compiled

    # ------------------------------------------------------------------
    # inspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._compiled)

    def keys(self) -> list[tuple]:
        """Cache keys in eviction order (least recently used first)."""
        with self._lock:
            return list(self._compiled)

    def info(self) -> dict:
        """Hit/miss/eviction counters plus current sizes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "parse_hits": self.parse_hits,
                "parse_misses": self.parse_misses,
                "size": len(self._compiled),
                "parse_size": len(self._parsed),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        """Drop every entry (counters are kept: they are monotone)."""
        with self._lock:
            self._compiled.clear()
            self._parsed.clear()


#: The process-wide cache used by the evaluators unless one is injected.
DEFAULT_CACHE = CompilationCache()


def default_cache() -> CompilationCache:
    """The process-wide compilation cache (mainly for tests and the CLI)."""
    return DEFAULT_CACHE


def compile_uncached(query: "Regex | str", alphabet: Iterable[SymbolType]) -> CompiledQuery:
    """A fresh compilation bypassing every cache (the differential oracle)."""
    regex = parse_regex(query) if isinstance(query, str) else query
    sigma = frozenset(alphabet)
    return CompiledQuery(regex, sigma, compile_regex(regex, alphabet=sigma))


def alphabet_for(regex: Regex, graph) -> frozenset[SymbolType]:
    """The Remark 11 alphabet: the graph's labels plus the query's symbols."""
    return frozenset(graph.labels | symbols(regex))
