"""Reachability and strongly connected components over adjacency maps
``{node: successors}`` (a successor that is not a key has none)."""

from __future__ import annotations


def reachable(adj, start):
    """Nodes reachable from `start` by one or more edges."""
    seen, stack = set(), list(adj.get(start, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adj.get(node, ()))
    return seen


def components(adj):
    """Strongly connected components as lists, in dependency order:
    each comes after every component it has an edge into.  Tarjan's
    algorithm finds them, visiting successors sorted so nothing depends
    on set iteration order; they are laid out by depth, the longest
    path from a component nothing depends on: deepest first, ties last
    found first."""
    index, low, stack, on_stack, out = {}, {}, [], set(), []

    def visit(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(sorted(adj.get(node, ())))

    for root in adj:
        work = [] if root in index else [visit(root)]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    work.append(visit(succ))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    out.append(component)
    # Tarjan emits sinks first, so reversed emission is topological
    of = {node: i for i, component in enumerate(out) for node in component}
    depth = [0] * len(out)
    for i in reversed(range(len(out))):
        for j in {of[succ] for node in out[i] for succ in adj.get(node, ())}:
            if j != i:
                depth[j] = max(depth[j], depth[i] + 1)
    order = sorted(range(len(out)), key=lambda i: (-depth[i], -i))
    return [out[i] for i in order]
