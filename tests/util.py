"""Shared test helpers: random valid diagrams built from random trees.

Diagrams are generated inversely: draw a random projective tree over the
tokens, assign random output types, then lay the tokens' compound types
out as wires and connect child outputs to parent argument slots.  The
result is valid and non-crossing by construction, which makes it an
independent oracle for tree building and type recovery;
``random_loopy_diagram`` adds the loopy diagrams no tree encodes.  The
dense ``circuit_unitary`` is the matching oracle for the simulator,
``shift_rule_oracle`` the per-gate one for its fused shift rule (with its
own gate kernel, ``_apply``), ``fd_gradient`` the approximate one for
both exact gradients, from ``simulate`` alone, ``train_oracle`` the
sample-by-sample one for its trainer (with its own ``bce_ddist``),
``resolve_pronouns_oracle`` the back-scan one for the pronoun resolver,
``validate_diagram_oracle`` the pairwise one for the crossing check,
``free_types`` and ``wires_of`` read a diagram's free-wire types and a
token's wires, and ``replay`` replays a text diagram's layers, through
the wires each touches (``element_wires``), to recover its wire order.
``block_symbol_count`` is the closed-form symbol count of an ansatz block,
and ``diagram_distribution`` the semantic oracle for ``compile``: it
contracts an expanded text diagram wire by wire.
``compose_spelled`` passes spelled ``SentenceDiagram``s to
``compose_document``, ``compose_oracle`` is document composition with no
short-cut (relabelling each body by its own walk, ``relabel``), and
``expand_oracle`` frame expansion by its definition, for
the random sentence bodies of ``random_element``.
``parse_type`` reads a pregroup type from its printed form.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce

import numpy as np

from discocirc.ansatz import BLOCKS
from discocirc.compose import TextDiagram, compose_document
from discocirc.errors import ChainMismatch
from discocirc.frames import Box, Frame, Identity, Par, Perm, Spider
from discocirc.grammar import (PregroupDiagram, PregroupType, SimpleType,
                               can_contract)
from discocirc.ingest import CorefMap, Document, Lexicon, Mention
from discocirc.sim import (EPS, _SHIFTS, History, _forward, _prepare, bce,
                           gate_matrix, gradient, simulate)
from discocirc.trees import PregroupTreeNode, compound_type


def parse_type(text: str) -> PregroupType:
    """Parse strings like ``"n.r@s@n.l"`` (``"1"`` is the unit)."""
    text = text.strip()
    if text in ("", "1"):
        return PregroupType()
    factors = []
    for part in text.replace(" ", "@").split("@"):
        if not part:
            continue
        bits = part.split(".")
        z = sum(1 if b == "r" else -1 for b in bits[1:])
        factors.append(SimpleType(bits[0], z))
    return PregroupType(factors)


def random_tree(rng: random.Random, n_tokens: int) -> PregroupTreeNode:
    """A random projective tree over ``n_tokens`` tokens."""
    words = [f"w{i}" for i in range(n_tokens)]

    def out_ty() -> PregroupType:
        k = 1 if rng.random() < 0.8 else 2
        return PregroupType(
            SimpleType(rng.choice("ns")) for _ in range(k))

    def build(lo: int, hi: int, root_ty: PregroupType) -> PregroupTreeNode:
        root = rng.randrange(lo, hi)
        children = []
        for side_lo, side_hi in ((lo, root), (root + 1, hi)):
            pos = side_lo
            while pos < side_hi:
                end = rng.randint(pos + 1, side_hi)
                children.append(build(pos, end, out_ty()))
                pos = end
        return PregroupTreeNode(words[root], root, root_ty, tuple(children))

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


def random_loopy_diagram(rng: random.Random,
                         max_tokens: int = 8) -> PregroupDiagram:
    """Random valid diagram from a random non-crossing matching over the
    wires of random tokens.  Unlike ``random_diagram`` it has cycles,
    self-cups, several heads, headless components, free wires under cups
    and the odd token of empty type."""
    sizes = [0 if rng.random() < 0.03 else rng.randint(1, 4)
             for _ in range(rng.randint(1, max_tokens))]
    owner = [t for t, k in enumerate(sizes) for _ in range(k)]
    cups, open_wires = [], []
    for w, t in enumerate(owner):
        r = rng.random()
        if open_wires and r < (0.1 if owner[open_wires[-1]] == t else 0.6):
            cups.append((open_wires.pop(), w))
        elif r < 0.9:
            open_wires.append(w)
    types = [SimpleType(rng.choice("ns"), rng.randint(-2, 2))
             for _ in owner]
    for i, j in cups:
        types[j] = types[i].r
    tokens, start = [], 0
    for t, k in enumerate(sizes):
        tokens.append((f"w{t}", PregroupType(types[start:start + k])))
        start += k
    return PregroupDiagram(tokens, cups)


def validate_diagram_oracle(d: PregroupDiagram) -> tuple[tuple, tuple]:
    """The illegal cups and the crossing cup pairs that ``validate_diagram``
    names, with every pair of cups checked for a crossing: the oracle for
    its one-pass crossing check."""
    wires = [t for _, ty in d.tokens for t in ty]
    illegal = []
    seen: dict[int, tuple[int, int]] = {}
    for cup in d.cups:
        i, j = cup
        if not (0 <= i < j < len(wires)) or not can_contract(wires[i], wires[j]):
            illegal.append(cup)
            continue
        if i in seen or j in seen:
            illegal.append(cup)
            continue
        seen[i] = seen[j] = cup
    crossings = []
    cups = sorted(set(d.cups))
    for a in range(len(cups)):
        for b in range(a + 1, len(cups)):
            (i, j), (k, l) = cups[a], cups[b]
            if i < k < j < l or k < i < l < j:
                crossings.append((cups[a], cups[b]))
    return tuple(illegal), tuple(crossings)


def free_types(d: PregroupDiagram) -> PregroupType:
    """The types of a diagram's free wires; ``s`` means grammatical."""
    return PregroupType(d.wire_types[w] for w in d.free_wires)


def wires_of(d: PregroupDiagram, token: int) -> list[int]:
    """The wire offsets of one token, in order."""
    return [w for w, t in enumerate(d.wire_owners) if t == token]


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


# --- long-document generators ----------------------------------------------

VERBS = ["reads", "loves", "likes", "bought", "found", "writes", "plays"]
OBJECTS = ["books", "map", "music", "bread", "code", "story", "garden"]
PEOPLE = ["man", "woman", "chef", "programmer"]


def chain_document(rng: random.Random, n: int) -> list[list[str]]:
    """One "she" chain: Alice, then "she" in every later sentence, each
    adding a fresh indefinite object."""
    return [["Alice", rng.choice(VERBS), "a", rng.choice(OBJECTS)]] + [
        ["she", rng.choice(VERBS), "a", rng.choice(OBJECTS)]
        for _ in range(n - 1)]


def entity_document(rng: random.Random, n: int) -> list[list[str]]:
    """Two fresh indefinite entities per sentence and no pronoun."""
    return [["a", rng.choice(PEOPLE), rng.choice(VERBS), "a",
             rng.choice(OBJECTS)] for _ in range(n)]


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


def block_symbol_count(kind: str, n: int, L: int) -> int:
    """Symbols an ``n``-qubit, ``L``-layer block takes, in closed form; the
    oracle the block-shape tests check ``iqp_block`` and ``sim4_block``
    against."""
    if kind == "iqp":
        return 3 if n == 1 else L * (n - 1)
    return L * (3 * n - 1)


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


def _apply(psi: np.ndarray, matrix: np.ndarray, qubits: tuple,
           n: int) -> np.ndarray:
    """Apply a 1- or 2-qubit gate to a state of shape (2^n,) or a stack of
    states (..., 2^n), qubit 0 the most significant bit, and lay the
    result out in that order again: the shift-rule oracle's own kernel,
    apart from the simulator's.

    A (d, d) matrix acts on every state.  A (B, d, d) stack acts on a
    stack whose leading axis has length B, matrix b on the states of row
    b.
    """
    if len(qubits) == 1:
        view = psi.reshape(-1, 2, 2 ** (n - qubits[0] - 1))
        axes = back = (0, 2, 1)
    else:
        a, b = qubits
        if a > b:
            a, b = b, a
            matrix = matrix.reshape(-1, 2, 2, 2, 2) \
                .transpose(0, 2, 1, 4, 3).reshape(matrix.shape)
        view = psi.reshape(-1, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
        axes, back = (0, 2, 4, 1, 3), (0, 3, 1, 4, 2)
    moved = view.transpose(axes)
    if matrix.ndim == 2:
        out = moved.reshape(-1, len(matrix)) @ matrix.T
    else:
        out = moved.reshape(len(matrix), -1, matrix.shape[-1]) \
            @ matrix.transpose(0, 2, 1)
    return out.reshape(moved.shape).transpose(back).reshape(psi.shape)


def shift_rule_oracle(circuits, params: dict,
                      dloss_ddist: np.ndarray) -> list[dict]:
    """The per-gate two-term shift rule, the oracle for the simulator's
    fused one: the state before each parameterised gate is shifted both
    ways and every later gate replayed on the (B, 2, 2^n) stack of
    shifted pairs; each symbol sums its gates' terms in gate order."""
    c = circuits[0]
    table, [plan, *_], slots = _prepare(circuits, params)
    fwd = _forward(plan, table[np.array(slots)])
    n = plan.n
    s = fwd.success[:, None]
    weights = dloss_ddist / s \
        - np.sum(dloss_ddist * fwd.raw, axis=1, keepdims=True) / s ** 2
    observable = np.zeros((len(circuits), 2 ** n))
    observable[:, plan.kept] = weights[:, plan.outcome]
    contrib = np.zeros((len(circuits), len(c.gates)))
    psi = np.zeros((len(circuits), 2 ** n), dtype=complex)
    psi[:, 0] = 1.0
    for i, (gate, m) in enumerate(zip(c.gates, fwd.matrices)):
        if isinstance(gate.param, str):
            shifted = gate_matrix(gate.name,
                                  fwd.thetas[:, i] + _SHIFTS[:, None])
            pair = np.stack([_apply(psi, plus_or_minus, gate.qubits, n)
                             for plus_or_minus in shifted], axis=1)
            for later, lm in zip(c.gates[i + 1:], fwd.matrices[i + 1:]):
                pair = _apply(pair, lm, later.qubits, n)
            expect = (np.abs(pair) ** 2 @ observable[:, :, None])[..., 0]
            contrib[:, i] = (expect[:, 0] - expect[:, 1]) / 2
        psi = _apply(psi, m, gate.qubits, n)
    grads = []
    for circuit, row in zip(circuits, contrib.tolist()):
        terms = [(g.param, term) for g, term in zip(circuit.gates, row)
                 if isinstance(g.param, str)]
        grad = dict.fromkeys(sorted({sym for sym, _ in terms}), 0.0)
        for sym, term in terms:
            grad[sym] += term
        grads.append(grad)
    return grads


def fd_gradient(c, params: dict, dloss_ddist: np.ndarray,
                step: float = 1e-6) -> dict[str, float]:
    """Central finite differences of the loss by each symbol of ``c``'s
    gates, in sorted order: (dist(+step) - dist(-step)) @ dloss_ddist /
    (2 step), each distribution from the public ``simulate`` with that one
    parameter shifted."""
    grad = {}
    for sym in sorted({g.param for g in c.gates if isinstance(g.param, str)}):
        up, down = (simulate(c, {**params, sym: params[sym] + shift})[0]
                    for shift in (step, -step))
        grad[sym] = float((up - down) @ dloss_ddist) / (2 * step)
    return grad


def bce_ddist(dist: np.ndarray, label: int) -> np.ndarray:
    """dL/d(distribution) of binary cross entropy on a two-outcome
    distribution, the oracle's own."""
    p1 = min(max(float(dist[1]), EPS), 1 - EPS)
    return np.array([0.0, -label / p1 + (1 - label) / (1 - p1)])


def train_oracle(dataset, cfg) -> tuple[dict, History]:
    """``train`` one sample at a time, the oracle for its plans, slots and
    Adam on arrays: the same draws, then per sample the public
    ``simulate`` and ``gradient`` with Adam over a dict of symbols, and
    the held-out split scored circuit by circuit with ``simulate``."""
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    split = max(1, int(round(len(dataset) * 0.8)))
    train_set = [dataset[i] for i in order[:split]]
    test_set = [dataset[i] for i in order[split:]]
    params: dict[str, float] = {}
    for circuit, _ in dataset:
        for sym, value in circuit.symbols.items():
            params.setdefault(sym, value)
    m, v = dict.fromkeys(params, 0.0), dict.fromkeys(params, 0.0)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = History()
    for epoch in range(1, cfg.epochs + 1):
        batch_order = rng.permutation(len(train_set))
        losses, corrects = [], 0
        for start in range(0, len(train_set), cfg.batch_size):
            picks = batch_order[start:start + cfg.batch_size]
            grad_sum = dict.fromkeys(params, 0.0)
            for i in picks:
                c, label = train_set[i]
                dist, _ = simulate(c, params)
                losses.append(bce(float(dist[1]), label))
                corrects += int((dist[1] >= 0.5) == bool(label))
                for sym, g in gradient(c, params, bce_ddist(dist, label),
                                       cfg.gradient).items():
                    grad_sum[sym] += g
            step += 1
            for sym in params:
                g = grad_sum[sym] / len(picks)
                m[sym] = beta1 * m[sym] + (1 - beta1) * g
                v[sym] = beta2 * v[sym] + (1 - beta2) * g * g
                m_hat = m[sym] / (1 - beta1 ** step)
                v_hat = v[sym] / (1 - beta2 ** step)
                params[sym] -= (cfg.learning_rate * m_hat
                                / (np.sqrt(v_hat) + eps))
        test_acc = float(np.mean([
            (simulate(c, params)[0][1] >= 0.5) == bool(label)
            for c, label in test_set])) if test_set else float("nan")
        history.rows.append((epoch, float(np.mean(losses)) if losses else 0.0,
                             corrects / max(len(train_set), 1), test_acc))
    return params, history


# --- the semantic oracle for the back end ----------------------------------

def diagram_distribution(td: TextDiagram, ansatz,
                         params: dict) -> tuple[np.ndarray, float]:
    """The output distribution and success probability of an expanded text
    diagram (its merge box appended), contracted wire by wire and not
    through ``compile``'s qubit numbers: the semantic oracle for
    ``simulate(compile(td))``.

    The state keeps one axis per live wire, 2^q levels each (the wire's
    first qubit most significant), in order of introduction.  A noun
    state adds a wire at |0> and, like a box, applies its block: the
    gates ``ansatz.BLOCKS`` gives for its name and width, on the
    concatenated qubits of its wires.  A copy spider maps |i> to |ii>, a
    merge spider keeps i = j, a ``Perm`` changes nothing, and the merge
    box projects all but its last wire onto |0>.  The outcomes read the
    live wires in their order."""
    q, levels = ansatz.qubits_per_wire, 2 ** ansatz.qubits_per_wire
    state, wires = np.ones((), dtype=complex), []
    occurrences: dict[tuple, int] = {}

    def block(name, on):
        nonlocal state
        arity, width = len(on), len(on) * q
        if not ansatz.share_parameters:
            occ = occurrences.get((name, arity), 0)
            occurrences[(name, arity)] = occ + 1
            name = f"{name}.{occ}" if occ else name
        names = (f"{name}__{arity}__{k}" for k in itertools.count())
        axes = [wires.index(w) for w in on]
        moved = np.moveaxis(state, axes, range(-arity, 0))
        psi = moved.reshape(-1, 2 ** width)
        for g in BLOCKS[ansatz.kind](width, ansatz.layers, names):
            m = gate_matrix(g.name, None if g.param is None
                            else params[g.param])
            psi = _apply(psi, m, g.qubits, width)
        state = np.moveaxis(psi.reshape(moved.shape), range(-arity, 0), axes)

    for s in td.states:
        state = np.multiply.outer(state, np.eye(levels)[0])
        wires.append(s.chain_id)
        block(s.word, [s.chain_id])
    for el in td.layers:
        if isinstance(el, Box):
            block(el.name, el.wires)
            if el.merge:
                for w in el.wires[:-1]:
                    state = np.take(state, 0, axis=wires.index(w))
                    wires.remove(w)
        elif isinstance(el, Spider) and el.dagger:
            for w in el.in_wires[1:]:
                src = wires.index(el.out_wire)
                state = np.moveaxis(np.moveaxis(state, src, -1)[..., None]
                                    * np.eye(levels), -2, src)
                wires.append(w)
        elif isinstance(el, Spider):
            for w in el.in_wires[1:]:
                src, dst = wires.index(el.in_wires[0]), wires.index(w)
                diagonal = np.diagonal(state, axis1=src, axis2=dst)
                wires.remove(w)
                state = np.moveaxis(diagonal, -1, wires.index(el.in_wires[0]))
        elif not isinstance(el, Perm):
            raise TypeError(f"not an expanded layer: {el!r}")
    probs = np.abs(state.reshape(-1)) ** 2
    success = float(probs.sum())
    return probs / success, success


# --- document composition ----------------------------------------------------

def compose_spelled(sentences, coref: CorefMap) -> TextDiagram:
    """``compose_document`` on spelled ``SentenceDiagram``s, each passed as
    the (word-free diagram, words, sentence index) triple that
    ``pipeline.diagrams`` builds: every noun and name is replaced by its
    index into the sentence's words."""
    triples = []
    for si, sd in enumerate(sentences):
        words = []

        def name(word) -> tuple:
            words.append(word)
            return (len(words) - 1,)

        def unspell(el):
            if isinstance(el, Par):
                return Par(tuple(map(unspell, el.elements)))
            if isinstance(el, Frame):
                return Frame(name(el.name), el.wires,
                             tuple(map(unspell, el.components)))
            if isinstance(el, Box):
                return el._replace(name=name(el.name))
            return el

        leaves = [n._replace(word=name(n.word)) for n in sd.nouns]
        at = sd.nouns[0].sentence_index if sd.nouns else si
        triples.append(((leaves, unspell(sd.body)), tuple(words), at))
    return compose_document(triples, coref)


def compose_oracle(sentences, coref: CorefMap) -> TextDiagram:
    """``compose_document`` on ``SentenceDiagram``s by its definition,
    with no short-cut: a chain's state is its first mention; a chain's
    k-th further mention in a sentence is wire (chain, k), copied from
    the chain before the body and merged back after it; and a sentence's
    chains, in first-mention order, are moved to the end of the wire
    order and back unless they already end it in that order."""
    chain_of = {m: ci for ci, chain in enumerate(coref.chains) for m in chain}
    states, layers = [], []
    for sd in sentences:
        before = {s.chain_id for s in states}
        counts, wire_of = {}, {}
        for n in sd.nouns:
            cid = chain_of[n.sentence_index, n.token_index]
            if cid not in before and cid not in counts:
                states.append(n._replace(chain_id=cid))
            k = counts[cid] = counts.get(cid, 0) + 1
            wire_of[n.token_index] = cid if k == 1 else (cid, k - 1)
        if not counts:
            continue
        order, chains = [s.chain_id for s in states], tuple(counts)
        tail = len(order) - len(chains)
        routed = tuple(order[tail:]) != chains
        copies = [Spider((c,) + tuple((c, k) for k in range(1, n)), c, True)
                  for c, n in counts.items() if n > 1]
        layers += [Perm(chains, tuple(range(tail, len(order))))] * routed
        layers += copies + [relabel(sd.body, wire_of)]
        layers += [Spider(c.in_wires, c.out_wire) for c in reversed(copies)]
        layers += [Perm(chains, tuple(map(order.index, chains)))] * routed
    return TextDiagram(states, layers)


def relabel(el, wire_of: dict):
    """A spelled sentence body element with every wire id ``w`` replaced
    by ``wire_of[w]``, built field by field."""
    if isinstance(el, Par):
        return Par(tuple(relabel(c, wire_of) for c in el.elements))
    wires = tuple(wire_of[w] for w in el.wires)
    if isinstance(el, Frame):
        return Frame(el.name, wires,
                     tuple(relabel(c, wire_of) for c in el.components))
    if isinstance(el, Box):
        return Box(el.name, wires, el.merge)
    assert isinstance(el, Identity), el
    return Identity(wires)


# --- frame expansion ---------------------------------------------------------

def expand_oracle(elements, mode: str) -> list:
    """Frame expansion by its definition: per component of a frame, a
    bottom box on the frame's wires, the expanded component, then a top
    box (``<frame>_bot``/``_top`` in shared mode, ``<frame>_bot_<i>``/
    ``_top_<i>`` in foliated mode); a ``Par`` is flattened into its
    expanded elements, an ``Identity`` dropped, anything else kept."""
    out = []
    for el in elements:
        if isinstance(el, Frame):
            for i, comp in enumerate(el.components, start=1):
                tag = "" if mode == "shared" else f"_{i}"
                out.append(Box(f"{el.name}_bot{tag}", el.wires))
                out += expand_oracle([comp], mode)
                out.append(Box(f"{el.name}_top{tag}", el.wires))
        elif isinstance(el, Par):
            out += expand_oracle(el.elements, mode)
        elif not isinstance(el, Identity):
            out.append(el)
    return out


def random_element(rng: random.Random, depth: int):
    """A random sentence body element nested ``depth`` deep through its
    first part: a frame, or one time in four a par, whose further parts
    are shallower; a leaf is a box, or one time in three an identity."""
    wires = tuple(sorted(rng.sample(range(8), rng.randint(1, 4))))
    if depth == 0:
        if rng.random() < 1 / 3:
            return Identity(wires)
        return Box(f"b{rng.randrange(5)}", wires)
    parts = [random_element(rng, depth - 1)] + [
        random_element(rng, rng.randrange(depth))
        for _ in range(rng.randrange(3))]
    if rng.random() < 0.25:
        return Par(tuple(parts))
    return Frame(f"f{rng.randrange(5)}", wires, tuple(parts))


# --- wire order of a text diagram -------------------------------------------

def element_wires(el) -> tuple:
    """The wire ids an element touches (domain side)."""
    if isinstance(el, (Box, Frame, Identity, Perm)):
        return el.wires
    if isinstance(el, Spider):
        return (el.out_wire,) if el.dagger else tuple(el.in_wires)
    if isinstance(el, Par):
        seen = []
        for sub in el.elements:
            for w in element_wires(sub):
                if w not in seen:
                    seen.append(w)
        return tuple(seen)
    raise TypeError(f"not a diagram element: {el!r}")


def apply_layer(order: list, layer) -> list:
    """Wire order after a layer (permutations reorder, spiders change
    multiplicity, everything else is width-preserving)."""
    if isinstance(layer, Perm):
        missing = [w for w in layer.wires if w not in order]
        if missing or len(set(layer.wires)) != len(layer.wires):
            raise ChainMismatch(
                f"permutation of {layer.wires} on wire order {order}")
        if len(layer.positions) != len(layer.wires) \
                or len(set(layer.positions)) != len(layer.positions) \
                or not all(0 <= p < len(order) for p in layer.positions):
            raise ChainMismatch(
                f"positions {layer.positions} on {len(order)} wires")
        out = [w for w in order if w not in layer.wires]
        for pos, w in sorted(zip(layer.positions, layer.wires)):
            out.insert(pos, w)
        return out
    if isinstance(layer, Spider):
        if layer.dagger:
            pos = order.index(layer.out_wire)
            return order[:pos] + list(layer.in_wires) + order[pos + 1:]
        out = [w for w in order if w not in layer.in_wires[1:]]
        out[out.index(layer.in_wires[0])] = layer.out_wire
        return out
    return list(order)


def replay(td: TextDiagram) -> tuple[list[tuple[list, list]], list]:
    """The wire order before and after each layer, and the final order.
    States are appended over time, so a chain is introduced just before
    the first layer that needs it; the states no layer touches end the
    final order."""
    order = []
    introduced = 0
    steps = []
    for layer in td.layers:
        needed = set()
        for w in element_wires(layer):
            needed.add(w[0] if isinstance(w, tuple) else w)
        while introduced < len(td.states) and not needed <= set(order):
            order = order + [td.states[introduced].chain_id]
            introduced += 1
        before, order = order, apply_layer(order, layer)
        steps.append((before, order))
    return steps, order + [s.chain_id for s in td.states[introduced:]]


def wire_order(td: TextDiagram) -> list:
    return replay(td)[1]


# --- the back-scan pronoun resolver -----------------------------------------

def _compatible(pron_feats: dict, noun_feats: dict) -> bool:
    for key in ("gender", "number"):
        a, b = pron_feats.get(key), noun_feats.get(key)
        if a and b and a != b:
            return False
    return True


def resolve_pronouns_oracle(doc: Document, lex: Lexicon) -> CorefMap:
    """The resolver that scans back over every earlier noun, the oracle for
    ``ingest.resolve_pronouns``, which looks at one noun per feature
    class."""
    chains: list[list[Mention]] = []
    antecedents: list[tuple[dict, int]] = []  # (features, chain) of nouns
    for si, sent in enumerate(doc.sentences):
        for ti, (word, ty) in enumerate(sent.tokens):
            mention = (si, ti)
            if word in lex.pronouns:
                feats = lex.features.get(word, {})
                for cand_feats, ci in reversed(antecedents):
                    if _compatible(feats, cand_feats):
                        chains[ci].append(mention)
                        break
                else:
                    chains.append([mention])
            elif word in lex.nouns:
                chains.append([mention])
                antecedents.append((lex.features.get(word, {}),
                                    len(chains) - 1))
    return CorefMap(chains)
