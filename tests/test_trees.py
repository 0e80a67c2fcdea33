import random

import pytest

from discocirc.grammar import PregroupDiagram, PregroupType, Ty, N
from discocirc.ingest import load_document, read_json
from discocirc.trees import (build_trees, compound_type, dump_tree,
                             forest_to_json, tree_to_dot)
from util import parse_type, random_diagram, random_loopy_diagram, wires_of

TRANSITIVE = parse_type("n.r@s@n.l")
FIXTURES = "tests/fixtures"


def transitive_sentence():
    return PregroupDiagram(
        [("Alice", Ty(N)), ("reads", TRANSITIVE), ("books", Ty(N))],
        [(0, 1), (3, 4)])


def test_head_is_free_wire_owner():
    d = transitive_sentence()
    [root] = build_trees(d).forest
    assert [d.wire_owners[w] for w in d.free_wires] == [root.token_index]


def test_transitive_tree_shape():
    report = build_trees(transitive_sentence())
    assert report.removed_cups == []
    [root] = report.forest
    assert (root.word, root.token_index, str(root.out_type)) == \
        ("reads", 1, "s")
    assert [c.word for c in root.children] == ["Alice", "books"]
    assert not any(c.children for c in root.children)


def test_determiner_phrase_tree():
    d = PregroupDiagram(
        [("the", parse_type("n@n.l")), ("man", Ty(N)),
         ("runs", parse_type("n.r@s"))],
        [(1, 2), (0, 3)])
    [root] = build_trees(d).forest
    assert root.word == "runs"
    [the] = root.children
    assert the.word == "the"
    assert [c.word for c in the.children] == ["man"]


def test_compound_type_recovers_lexical_types():
    report = build_trees(transitive_sentence())
    [root] = report.forest
    assert str(compound_type(root)) == "n.r@s@n.l"
    for leaf in root.children:
        assert str(compound_type(leaf)) == "n"


def test_loop_breaking_removes_longer_cup():
    doc = load_document(read_json(f"{FIXTURES}/hard_reading.json"))
    report = build_trees(doc.sentences[0])
    assert report.removed_cups == [(5, 10)]
    [root] = report.forest
    assert root.word == "is"
    assert "hard" in [n.word for n in root.walk()]
    # type recovery differs from the lexicon exactly at the removed cup
    diagram = doc.sentences[0]
    for node in root.walk():
        recovered = compound_type(node)
        original = diagram.tokens[node.token_index][1]
        if node.word in ("hard", "read"):
            assert len(recovered) == len(original) - 1
        else:
            assert recovered == original


def test_single_token_sentence():
    d = PregroupDiagram([("Alice", Ty(N))], [])
    report = build_trees(d)
    [root] = report.forest
    assert not root.children and root.word == "Alice"


def test_random_round_trip_small():
    rng = random.Random(7)
    for _ in range(100):
        diagram, _tree = random_diagram(rng)
        report = build_trees(diagram)
        removed = {w for cup in report.removed_cups for w in cup}
        for root in report.forest:
            for node in root.walk():
                recovered = compound_type(node)
                if any(w in removed
                       for w in wires_of(diagram, node.token_index)):
                    continue
                assert recovered == diagram.tokens[node.token_index][1]


def test_forest_sorted_by_root_index():
    rng = random.Random(11)
    for _ in range(50):
        diagram, _ = random_diagram(rng)
        forest = build_trees(diagram).forest
        roots = [r.token_index for r in forest]
        assert roots == sorted(roots)


def test_dump_tree_format():
    [root] = build_trees(transitive_sentence()).forest
    lines = dump_tree(root).splitlines()
    assert lines[0] == "1:reads [s]"
    assert lines[1].startswith("  0:Alice")


def test_dot_and_json_dumps():
    forest = build_trees(transitive_sentence()).forest
    dot = tree_to_dot(forest)
    assert dot.startswith("digraph") and "reads" in dot
    data = forest_to_json(forest)
    assert data[0]["word"] == "reads"
    assert [c["word"] for c in data[0]["children"]] == ["Alice", "books"]


def diagram_of(tokens, cups):
    return PregroupDiagram(
        [(w, parse_type(ty)) for w, ty in tokens], cups)


def shape(node):
    return (node.word, str(node.out_type), [shape(c) for c in node.children])


def test_equal_spans_remove_the_leftmost_run():
    # c hangs off head b by (1, 4) and off head e by (5, 6), both span 1
    d = diagram_of([("a", "n.l"), ("b", "n.l.l@s.r@n.l"), ("c", "n.l@n.r"),
                    ("e", "n.r.r@n@s.r")], [(0, 7), (1, 4), (5, 6)])
    report = build_trees(d)
    assert report.removed_cups == [(1, 4)]
    assert [shape(r) for r in report.forest] == [
        ("b", "s.r@n.l", []),
        ("e", "s.r", [("a", "n.l", []), ("c", "n.r", [])])]


def test_headless_component_keeps_its_cups():
    d = diagram_of([("Alice", "n"), ("sleeps", "n.r@s"), ("X", "n"),
                    ("Y", "n.r")], [(0, 1), (3, 4)])
    report = build_trees(d)
    assert report.removed_cups == []
    assert [shape(r) for r in report.forest] == [
        ("sleeps", "s", [("Alice", "n", [])]),
        ("X", "1", [("Y", "n.r", [])])]


def test_second_run_to_a_child_closes_a_cycle():
    # two runs join a and b, split by a's free n wire
    d = diagram_of([("a", "s@n.r@n@s.l.l"), ("b", "s.l@n.r.r@s.r"),
                    ("c", "s.r.r")], [(1, 5), (3, 4), (6, 7)])
    report = build_trees(d)
    assert report.removed_cups == [(1, 5)]
    assert [shape(r) for r in report.forest] == [
        ("a", "s@n", [("b", "s.l", [("c", "s.r.r", [])])])]


def cup_runs(d):
    """Each cup's run, named by the run's outermost cup."""
    owner = d.wire_owners
    run_of = {}
    for i, j in d.cups:
        prev = (i - 1, j + 1)
        same = prev in run_of and owner[i - 1] == owner[i] \
            and owner[j + 1] == owner[j]
        run_of[(i, j)] = run_of[prev] if same else (i, j)
    return run_of


def check_spanning_forest(d, report, seen):
    """The forest is the spanning forest the docstring of ``build_trees``
    describes; ``seen`` counts which shapes of diagram were checked."""
    owner = d.wire_owners
    heads = {owner[w] for w in d.free_wires}
    run_of = cup_runs(d)

    def key(run):
        return (owner[run[1]] - owner[run[0]], -run[0])

    nodes = [n for root in report.forest for n in root.walk()]
    assert sorted(n.token_index for n in nodes) == list(range(len(d.tokens)))
    root_of, parent = {}, {}
    for root in report.forest:
        members = {n.token_index for n in root.walk()}
        if members & heads:
            assert members & heads == {root.token_index}
            assert root.out_type == PregroupType(
                d.wire_types[w] for w in d.free_wires
                if owner[w] == root.token_index)
        else:
            assert root.token_index == min(members)
            assert len(root.out_type) == 0
            seen["headless"] += len(members) > 1
        for node in root.walk():
            root_of[node.token_index] = root.token_index
            assert [c.token_index for c in node.children] == sorted(
                c.token_index for c in node.children)
            for child in node.children:
                parent[child.token_index] = node.token_index

    removed = report.removed_cups
    removed_runs = {run_of[c] for c in removed}
    assert sorted(removed) == sorted(
        c for c in d.cups if run_of[c] in removed_runs)
    assert removed == sorted(removed, key=lambda c: (key(run_of[c]), c[0]))
    edge_cups = {}
    for i, j in d.cups:
        if (i, j) in removed:
            continue
        u, v = owner[i], owner[j]
        child = u if parent.get(u) == v else v
        assert parent.get(child) == (v if child == u else u)
        edge_cups.setdefault(child, []).append((i, j))
    edge_key = {}
    for child, cups in edge_cups.items():
        [run] = {run_of[c] for c in cups}
        edge_key[child] = key(run)
        node = next(n for n in nodes if n.token_index == child)
        assert node.out_type == PregroupType(d.wire_types[w] for w in sorted(
            w for c in cups for w in c if owner[w] == child))
    assert set(edge_cups) == set(parent)

    def to_root(t):
        path = []
        while t in parent:
            path.append(t)
            t = parent[t]
        return path

    for run in removed_runs:
        u, v = owner[run[0]], owner[run[1]]
        up, vp = to_root(u), to_root(v)
        if root_of[u] == root_of[v]:
            path = set(up) ^ set(vp)
        else:
            assert {root_of[u], root_of[v]} <= heads
            path = set(up) | set(vp)
        assert all(edge_key[t] < key(run) for t in path)
        seen["self_cup" if u == v else "cycle" if root_of[u] == root_of[v]
             else "head_to_head"] += 1

    if not any(i < w < j for w in d.free_wires for i, j in d.cups):
        seen["round_trip"] += 1
        gone = {w for c in removed for w in c}
        for node in nodes:
            assert compound_type(node) == PregroupType(
                d.wire_types[w] for w in wires_of(d, node.token_index)
                if w not in gone)


def test_forest_is_the_minimum_spanning_forest_on_loopy_diagrams():
    rng = random.Random(2026)
    seen = dict.fromkeys(
        ["headless", "self_cup", "cycle", "head_to_head", "round_trip"], 0)
    for _ in range(2500):
        d = random_loopy_diagram(rng)
        check_spanning_forest(d, build_trees(d), seen)
    assert min(seen.values()) >= 100, seen

