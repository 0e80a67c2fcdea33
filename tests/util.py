"""Shared test helpers: random valid diagrams built from random trees.

Diagrams are generated inversely: draw a random projective tree over the
tokens, assign random output types, then lay the tokens' compound types
out as wires and connect child outputs to parent argument slots.  The
result is valid and non-crossing by construction, which makes it an
independent oracle for tree building and type recovery.  The dense
``circuit_unitary`` is the matching oracle for the simulator.
"""

from __future__ import annotations

import random
from functools import reduce

import numpy as np

from discocirc.grammar import PregroupDiagram, PregroupType, SimpleType
from discocirc.sim import gate_matrix
from discocirc.trees import PregroupTreeNode, compound_type


def random_tree(rng: random.Random, n_tokens: int) -> PregroupTreeNode:
    """A random projective tree over ``n_tokens`` tokens."""
    words = [f"w{i}" for i in range(n_tokens)]

    def out_ty() -> PregroupType:
        k = 1 if rng.random() < 0.8 else 2
        return PregroupType(
            SimpleType(rng.choice("ns")) for _ in range(k))

    def build(lo: int, hi: int, root_ty: PregroupType) -> PregroupTreeNode:
        root = rng.randrange(lo, hi)
        node = PregroupTreeNode(words[root], root, root_ty)
        for side_lo, side_hi in ((lo, root), (root + 1, hi)):
            pos = side_lo
            while pos < side_hi:
                end = rng.randint(pos + 1, side_hi)
                node.children.append(build(pos, end, out_ty()))
                pos = end
        node.children.sort(key=lambda c: c.token_index)
        return node

    return build(0, n_tokens, PregroupType([SimpleType("s")]))


def tree_to_diagram(root: PregroupTreeNode) -> PregroupDiagram:
    """Lay a tree out as the pregroup diagram it encodes."""
    nodes = sorted(root.walk(), key=lambda n: n.token_index)
    types = [compound_type(n) for n in nodes]
    start = {}
    pos = 0
    for node, ty in zip(nodes, types):
        start[node.token_index] = pos
        pos += len(ty)

    cups = []

    def offsets(node) -> dict[str, range]:
        """Wire ranges of a token: left-arg slices, own output, right-arg."""
        base = start[node.token_index]
        left = [c for c in node.children if c.token_index < node.token_index]
        right = [c for c in node.children if c.token_index > node.token_index]
        slices = {}
        p = base
        for c in reversed(left):
            slices[c.token_index] = range(p, p + len(c.out_type))
            p += len(c.out_type)
        slices["out"] = range(p, p + len(node.out_type))
        p += len(node.out_type)
        for c in reversed(right):
            slices[c.token_index] = range(p, p + len(c.out_type))
            p += len(c.out_type)
        return slices

    def connect(node):
        slices = offsets(node)
        for c in node.children:
            child_out = offsets(c)["out"]
            parent_slot = slices[c.token_index]
            for cw, pw in zip(child_out, reversed(parent_slot)):
                cups.append((min(cw, pw), max(cw, pw)))
            connect(c)

    connect(root)
    tokens = [(n.word, ty) for n, ty in zip(nodes, types)]
    return PregroupDiagram(tokens, cups)


def random_diagram(rng: random.Random, max_tokens: int = 10):
    """Random valid diagram plus the tree it was generated from."""
    tree = random_tree(rng, rng.randint(1, max_tokens))
    return tree_to_diagram(tree), tree


# --- two-topic paragraph generator ------------------------------------------

COOKING = {
    "subjects": [("chef", "he"), ("woman", "she")],
    "verbs": ["cooks", "prepares", "bakes", "serves", "tastes", "makes"],
    "objects": ["soup", "bread", "dinner", "lunch", "meal", "food"],
    "adjectives": ["tasty", "fresh", "great", "good"],
}
PROGRAMMING = {
    "subjects": [("programmer", "she"), ("man", "he")],
    "verbs": ["writes", "debugs", "fixes", "tests", "solves"],
    "objects": ["code", "program", "bug", "problems", "work"],
    "adjectives": ["efficient", "clever", "new", "large"],
}


def topic_text(rng: random.Random, topic: dict) -> list[list[str]]:
    """Three sentences about one topic, subject carried by a pronoun."""
    subject, pronoun = rng.choice(topic["subjects"])
    sentences = [["the", subject, rng.choice(topic["verbs"]),
                  rng.choice(topic["adjectives"]),
                  rng.choice(topic["objects"])]]
    for _ in range(2):
        sentences.append([pronoun, rng.choice(topic["verbs"]),
                          "the", rng.choice(topic["objects"])])
    return sentences


def topic_dataset(rng: random.Random,
                  n_texts: int) -> list[tuple[list[list[str]], int]]:
    """Labelled paragraphs, half per topic, shuffled."""
    texts = []
    for i in range(n_texts):
        label = i % 2
        topic = PROGRAMMING if label else COOKING
        texts.append((topic_text(rng, topic), label))
    rng.shuffle(texts)
    return texts


def classification_dataset(n_texts: int, seed: int = 0):
    """Compile a labelled two-topic dataset down to circuits."""
    from discocirc.ansatz import AnsatzConfig
    from discocirc.ingest import Lexicon, parse_text
    from discocirc.pipeline import (PipelineConfig, circuit, diagrams,
                                    treeize)
    from discocirc.rewrite import builtin_rule

    lex = Lexicon.builtin()
    cfg = PipelineConfig(
        lexicon=lex,
        rewrites=[builtin_rule("determiner"),
                  builtin_rule("noun_modification")],
        ansatz=AnsatzConfig("sim4", 1, 1, share_parameters=True, seed=seed))
    rng = random.Random(seed)
    dataset = []
    for sentences, label in topic_dataset(rng, n_texts):
        doc = parse_text(sentences, lex)
        td = diagrams(doc, treeize(doc, cfg), cfg)
        dataset.append((circuit(td, cfg), label))
    return dataset


def circuit_unitary(c, params: dict) -> np.ndarray:
    """The circuit's full 2^n matrix (ignoring postselection); the dense
    oracle for unitarity checks."""
    n = max(c.n_qubits, 1)
    U = np.eye(2 ** n, dtype=complex)
    for gate in c.gates:
        theta = params[gate.param] if isinstance(gate.param, str) \
            else gate.param
        U = _embed(gate_matrix(gate.name, theta), gate.qubits, n) @ U
    return U


def _embed(matrix: np.ndarray, qubits: tuple, n: int) -> np.ndarray:
    """Promote a k-qubit gate to the full 2^n space."""
    k = len(qubits)
    dims = [2] * (2 * n)
    ident = reduce(np.kron, [np.eye(2, dtype=complex)] * (n - k),
                   np.eye(1, dtype=complex))
    big = np.kron(matrix, ident).reshape(dims)
    order = list(qubits) + [qb for qb in range(n) if qb not in qubits]
    inverse = np.argsort(order)
    big = np.transpose(big, list(inverse) + [n + i for i in inverse])
    return big.reshape(2 ** n, 2 ** n)
