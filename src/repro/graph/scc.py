"""Strongly connected components of a small explicit graph."""


def strongly_connected(nodes, successors) -> dict:
    """Iterative Tarjan; returns a node -> component-id mapping.

    ``successors(node)`` yields a node's successors; those outside
    ``nodes`` are ignored.  Components are numbered in the order Tarjan
    closes them, which is a reverse topological order of the condensation:
    an edge between two components always runs from the higher id to the
    lower.
    """
    index_counter = [0]
    indices: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    component: dict = {}
    comp_counter = [0]

    for root in nodes:
        if root in indices:
            continue
        work = [(root, iter(successors(root)))]
        indices[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if successor not in nodes:
                    continue
                if successor not in indices:
                    indices[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_counter[0]
                    if member == node:
                        break
                comp_counter[0] += 1
    return component
