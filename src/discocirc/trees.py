"""Pregroup trees: compact tree form of a sentence's pregroup diagram.

Each node is a token annotated with the type of its output wire(s); its
children are the tokens its other wires contract with.  The tokens and
the runs of nested cups between them form a graph; the trees are its
spanning forest with the shortest runs kept, so a cycle loses its run
of largest token span.  The full compound type of any token can be
recovered from the node and its children's output types.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .grammar import PregroupDiagram, PregroupType, validate_diagram

TREE_MEMO_SIZE = 1024  # entries kept by each sentence-shape memo


class PregroupTreeNode(NamedTuple):
    """An immutable tree node; trees share their unchanged subtrees.  In
    a word-free tree, ``word`` is the tuple of the token indices whose
    words, joined by spaces, name the node."""

    word: str
    token_index: int
    out_type: PregroupType
    children: tuple["PregroupTreeNode", ...] = ()

    def walk(self):
        """Yield this node and all descendants, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return (f"PregroupTreeNode({self.word!r}, {self.token_index}, "
                f"[{self.out_type}], {len(self.children)} children)")


class TreeBuildReport:
    """A sentence's forest and the cups removed to build it.  A report may
    hold instead the word-free report of its shape and its words: its
    forest is then built on first read, and ``pipeline.diagrams`` lowers
    the shape."""

    _shape: TreeBuildReport | None = None
    _words: tuple[str, ...] = ()

    def __init__(self, forest, removed_cups):
        self._forest, self.removed_cups = forest, removed_cups

    @property
    def forest(self) -> list[PregroupTreeNode]:
        if self._forest is None:
            self._forest = [relabel(root, self._words)
                            for root in self._shape.forest]
        return self._forest


def build_trees(d: PregroupDiagram) -> TreeBuildReport:
    """Convert a valid diagram into a forest of pregroup trees.

    A run is a maximal group of nested cups ``(a, b), (a+1, b-1), ...``
    between the same two tokens; every run is one candidate edge.  The
    runs are taken in order of key (token span, -left endpoint), that is
    shortest first and, on equal spans, rightmost first, with all heads
    (tokens owning free wires) counted as one vertex.  A run that would
    close a cycle or join two heads is removed: its cups go to
    ``removed_cups`` in that order, outermost cup first.  Every other run
    is a tree edge, so the removed run is always the one of largest key
    on the cycle or head-to-head path it closes.

    Each tree holds at most one head and is rooted there, with the head's
    free wires as output type; a component with no head is rooted at its
    leftmost token, with an empty output type.  A child's output type is
    its wires in the run to its parent.  Children are in token order and
    the roots in sentence order.

    No word is read except to label its node, so the word-free forest is
    built once per process for each (types, cups) (the last
    ``TREE_MEMO_SIZE`` shapes used are kept).  Each call gets a report of
    its own that holds this forest and its words: its ``forest`` is built
    when read, and its ``removed_cups`` is its own list.
    """
    shape = _shape_trees(d.types, d.cups)
    report = TreeBuildReport(None, list(shape.removed_cups))
    report._shape, report._words = shape, d.words
    return report


@lru_cache(maxsize=TREE_MEMO_SIZE)
def _shape_trees(types, cups) -> TreeBuildReport:
    """``build_trees``' word-free report for these types and cups, in
    which token ``i`` is named ``(i,)``."""
    report = _build(PregroupDiagram(
        [((i,), ty) for i, ty in enumerate(types)], cups))
    return TreeBuildReport(tuple(report.forest), tuple(report.removed_cups))


def _build(d: PregroupDiagram) -> TreeBuildReport:
    """``build_trees`` without the memo: ``d``'s report, with its words."""
    validate_diagram(d)

    wire_types = d.wire_types
    owner = d.wire_owners
    runs: list[list[tuple[int, int]]] = []
    for i, j in d.cups:  # sorted by left endpoint
        if runs and runs[-1][-1] == (i - 1, j + 1) \
                and owner[i - 1] == owner[i] and owner[j + 1] == owner[j]:
            runs[-1].append((i, j))
        else:
            runs.append([(i, j)])

    free = d.free_wires
    heads = sorted({owner[w] for w in free})
    parent = list(range(len(d.tokens)))
    for h in heads:
        parent[h] = heads[0]

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    removed: list[tuple[int, int]] = []
    edges: list[list[tuple[int, list]]] = [[] for _ in d.tokens]
    for run in sorted(runs, key=lambda r: (
            owner[r[0][1]] - owner[r[0][0]], -r[0][0])):
        u, v = owner[run[0][0]], owner[run[0][1]]
        if find(u) == find(v):
            removed.extend(run)
            continue
        parent[find(u)] = find(v)
        edges[u].append((v, run))
        edges[v].append((u, run))

    def grow(tok: int, out_wires, above: int | None) -> PregroupTreeNode:
        out_type = PregroupType(wire_types[w] for w in sorted(out_wires))
        return PregroupTreeNode(d.tokens[tok][0], tok, out_type, tuple([
            grow(child, (w for cup in run for w in cup if owner[w] == child),
                 tok)
            for child, run in sorted(edges[tok]) if child != above]))

    forest = []
    rooted = {find(h) for h in heads}
    for t in range(len(d.tokens)):
        if t in heads or find(t) not in rooted:
            rooted.add(find(t))
            forest.append(grow(t, (w for w in free if owner[w] == t), None))
    return TreeBuildReport(forest, removed)


def relabel(node: PregroupTreeNode, words) -> PregroupTreeNode:
    """The word-free tree ``node`` named in ``words``, with the same token
    indices, output types and child order: one new node per node."""
    return PregroupTreeNode(
        _spell(node.word, words), node.token_index, node.out_type,
        tuple([relabel(child, words) for child in node.children]))


def _spell(name: tuple, words) -> str:
    """A word-free name, a tuple of token indices, as their words joined
    by spaces."""
    return words[name[0]] if len(name) == 1 \
        else " ".join(map(words.__getitem__, name))


def compound_type(node: PregroupTreeNode) -> PregroupType:
    """Recover a token's full pregroup type from its node and children.

    Left children contribute reversed right adjoints before the node's own
    output type; right children contribute reversed left adjoints after it.
    """
    left = [c for c in node.children if c.token_index < node.token_index]
    right = [c for c in node.children if c.token_index > node.token_index]
    result = PregroupType()
    # nearest-first on both sides: adjoints must cancel outside-in
    for c in reversed(left):
        result = result @ c.out_type.r
    result = result @ node.out_type
    for c in reversed(right):
        result = result @ c.out_type.l
    return result


def dump_tree(root: PregroupTreeNode) -> str:
    """Indented text dump, one node per line as ``index:word [type]``."""
    lines = []

    def visit(node, depth):
        lines.append(f"{'  ' * depth}{node.token_index}:{node.word} "
                     f"[{node.out_type}]")
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def tree_to_json(node: PregroupTreeNode) -> dict:
    """Nested JSON dump of one tree."""
    return {
        "word": node.word,
        "token": node.token_index,
        "type": [[t.base, t.z] for t in node.out_type],
        "children": [tree_to_json(c) for c in node.children],
    }


def forest_to_json(forest: list[PregroupTreeNode]) -> list[dict]:
    return [tree_to_json(root) for root in forest]


def tree_to_dot(forest: list[PregroupTreeNode]) -> str:
    """DOT graph of a pregroup forest for external rendering."""
    lines = ["digraph pregroup_tree {", '  node [shape=box];']
    for root in forest:
        for node in root.walk():
            lines.append(
                f'  t{node.token_index} '
                f'[label="{node.token_index}:{node.word}\\n{node.out_type}"];')
            for child in node.children:
                lines.append(f"  t{node.token_index} -> t{child.token_index};")
    lines.append("}")
    return "\n".join(lines)
