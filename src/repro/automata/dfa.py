"""Deterministic finite automata: determinization, minimization, Boolean ops.

These are the "standard automata constructions such as union, intersection,
determinization, and complement" that Remark 11 keeps available by choosing
``!S`` wildcards over unrestricted ones.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.automata.nfa import NFA

StateType = Hashable
SymbolType = Hashable

#: The implicit rejecting sink state of a completed DFA.
SINK = "__sink__"


class DFA:
    """A complete deterministic automaton.

    ``delta`` is total: every (state, symbol) pair over the alphabet has
    exactly one successor (completion introduces :data:`SINK` on demand).
    """

    __slots__ = ("states", "alphabet", "initial", "finals", "_delta")

    def __init__(
        self,
        states: Iterable[StateType],
        alphabet: Iterable[SymbolType],
        delta: Mapping[tuple[StateType, SymbolType], StateType],
        initial: StateType,
        finals: Iterable[StateType],
    ):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.initial = initial
        self.finals = frozenset(finals)
        self._delta = dict(delta)
        if initial not in self.states:
            raise ValueError("initial state not in state set")
        if not self.finals <= self.states:
            raise ValueError("final states not in state set")
        for state in self.states:
            for symbol in self.alphabet:
                if (state, symbol) not in self._delta:
                    raise ValueError(
                        f"DFA transition function not total at {(state, symbol)!r}"
                    )

    @property
    def num_states(self) -> int:
        return len(self.states)

    def step(self, state: StateType, symbol: SymbolType) -> StateType:
        return self._delta[(state, symbol)]

    def accepts(self, word: Iterable[SymbolType]) -> bool:
        state = self.initial
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            state = self._delta[(state, symbol)]
        return state in self.finals

    def to_nfa(self) -> NFA:
        """View the DFA as an NFA (dropping unreachable sink noise)."""
        return NFA(
            self.states,
            self.alphabet,
            [
                (source, symbol, target)
                for (source, symbol), target in self._delta.items()
            ],
            {self.initial},
            self.finals,
        ).trim()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DFA states={len(self.states)} alphabet={len(self.alphabet)}>"


def determinize(nfa: NFA, alphabet: Iterable[SymbolType] | None = None) -> DFA:
    """Subset construction.  ``alphabet`` defaults to the NFA's alphabet."""
    sigma = frozenset(alphabet) if alphabet is not None else nfa.alphabet
    initial = nfa.initial
    states = {initial}
    delta: dict[tuple[frozenset, SymbolType], frozenset] = {}
    frontier = [initial]
    while frontier:
        subset = frontier.pop()
        for symbol in sigma:
            successor = nfa.step(subset, symbol)
            delta[(subset, symbol)] = successor
            if successor not in states:
                states.add(successor)
                frontier.append(successor)
    finals = {subset for subset in states if subset & nfa.finals}
    return DFA(states, sigma, delta, initial, finals)


def minimize(dfa: DFA) -> DFA:
    """Moore's partition-refinement minimization (on reachable states)."""
    reachable = {dfa.initial}
    frontier = [dfa.initial]
    while frontier:
        state = frontier.pop()
        for symbol in dfa.alphabet:
            successor = dfa.step(state, symbol)
            if successor not in reachable:
                reachable.add(successor)
                frontier.append(successor)

    symbols_ordered = sorted(dfa.alphabet, key=repr)
    # Initial partition: accepting vs rejecting.
    block_of = {
        state: (state in dfa.finals) for state in reachable
    }
    while True:
        signature = {
            state: (
                block_of[state],
                tuple(block_of[dfa.step(state, symbol)] for symbol in symbols_ordered),
            )
            for state in reachable
        }
        blocks = sorted({sig for sig in signature.values()}, key=repr)
        renumber = {sig: index for index, sig in enumerate(blocks)}
        new_block_of = {state: renumber[signature[state]] for state in reachable}
        if len(set(new_block_of.values())) == len(set(block_of.values())):
            block_of = new_block_of
            break
        block_of = new_block_of

    states = set(block_of.values())
    delta = {}
    for state in reachable:
        for symbol in dfa.alphabet:
            delta[(block_of[state], symbol)] = block_of[dfa.step(state, symbol)]
    finals = {block_of[state] for state in reachable if state in dfa.finals}
    return DFA(states, dfa.alphabet, delta, block_of[dfa.initial], finals)


def complement(dfa: DFA) -> DFA:
    """The complement automaton (over the same alphabet)."""
    return DFA(
        dfa.states,
        dfa.alphabet,
        {key: dfa.step(*key) for key in _all_keys(dfa)},
        dfa.initial,
        dfa.states - dfa.finals,
    )


def _all_keys(dfa: DFA):
    for state in dfa.states:
        for symbol in dfa.alphabet:
            yield (state, symbol)


def _synchronous_product(left: DFA, right: DFA, final_rule) -> DFA:
    if left.alphabet != right.alphabet:
        raise ValueError("product requires identical alphabets")
    initial = (left.initial, right.initial)
    states = {initial}
    delta = {}
    frontier = [initial]
    while frontier:
        pair = frontier.pop()
        for symbol in left.alphabet:
            successor = (left.step(pair[0], symbol), right.step(pair[1], symbol))
            delta[(pair, symbol)] = successor
            if successor not in states:
                states.add(successor)
                frontier.append(successor)
    finals = {
        pair
        for pair in states
        if final_rule(pair[0] in left.finals, pair[1] in right.finals)
    }
    return DFA(states, left.alphabet, delta, initial, finals)


def intersect(left: DFA, right: DFA) -> DFA:
    """The product automaton for the intersection of two languages."""
    return _synchronous_product(left, right, lambda a, b: a and b)


def union_dfa(left: DFA, right: DFA) -> DFA:
    """The product automaton for the union of two languages."""
    return _synchronous_product(left, right, lambda a, b: a or b)


def difference(left: DFA, right: DFA) -> DFA:
    """The product automaton for ``L(left) - L(right)``."""
    return _synchronous_product(left, right, lambda a, b: a and not b)


def is_empty_dfa(dfa: DFA) -> bool:
    """Whether the DFA accepts nothing."""
    return dfa.to_nfa().is_empty()


def equivalent(left: DFA, right: DFA) -> bool:
    """Language equivalence via symmetric difference emptiness."""
    return is_empty_dfa(difference(left, right)) and is_empty_dfa(
        difference(right, left)
    )
