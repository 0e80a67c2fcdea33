"""End-to-end acceptance checks for the whole compiler.

Each test pins one user-visible guarantee: grammar round-trips, loop
breaking, composition structure, rewrites, filtering, frame expansion,
ansatz arithmetic, unitarity, gradient agreement, training quality and
scaling.  Budgets are asserted where the guarantee includes one.
"""

import json
import random
import resource
import time
import tracemalloc

import numpy as np
import pytest

from discocirc.ansatz import (AnsatzConfig, Circuit, append_merge_box,
                              compile, iqp_block, sim4_block)
from discocirc.compose import wire_box_sequences
from discocirc.frames import (Box, Perm, Spider, iter_boxes,
                              min_frequency_filter, sentence_diagram)
from discocirc.ingest import (CorefMap, Lexicon, load_document, parse_text,
                              read_json)
from discocirc.pipeline import PipelineConfig, diagrams, run, treeize
from discocirc.rewrite import builtin_rule, rewrite_tree
from discocirc.sandwich import SandwichConfig, expand_frames
from discocirc.sim import TrainConfig, gradient, train
from discocirc.trees import build_trees, compound_type
from util import (block_symbol_count, chain_document, circuit_unitary,
                  classification_dataset, compose_spelled, fd_gradient,
                  random_diagram, wire_order, wires_of)

FIXTURES = "tests/fixtures"


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def lower_document(doc, lex, rules=()):
    sds = []
    for si, d in enumerate(doc.sentences):
        forest = build_trees(d).forest
        for rule in rules:
            forest = [rewrite_tree(root, rule).tree for root in forest]
        nouns = frozenset(ti for ti, (w, _) in enumerate(d.tokens)
                          if lex.is_noun(w))
        sds.append(sentence_diagram(forest, frozenset(), nouns, si))
    return compose_spelled(sds, doc.corefs)


def assert_round_trip(diagram):
    report = build_trees(diagram)
    removed = {w for cup in report.removed_cups for w in cup}
    for root in report.forest:
        for node in root.walk():
            wires = set(wires_of(diagram, node.token_index))
            if wires & removed:
                continue  # modulo removed loop cups
            assert compound_type(node) == \
                diagram.tokens[node.token_index][1]


def test_1_grammar_round_trip_corpus_and_random():
    start = time.monotonic()
    corpus = load_document(read_json(f"{FIXTURES}/corpus.json"))
    fixtures = list(corpus.sentences)
    for extra in ("reading.json", "hard_reading.json", "bike_rewrites.json"):
        fixtures += load_document(read_json(f"{FIXTURES}/{extra}")).sentences
    assert len(fixtures) >= 30
    for diagram in fixtures:
        assert_round_trip(diagram)
    rng = random.Random(2024)
    for _ in range(500):
        diagram, _ = random_diagram(rng, max_tokens=10)
        assert_round_trip(diagram)
    assert time.monotonic() - start < 5.0


def test_2_loop_breaking_removes_hard_read_cup():
    doc = load_document(read_json(f"{FIXTURES}/hard_reading.json"))
    report = build_trees(doc.sentences[0])
    [removed] = report.removed_cups
    d = doc.sentences[0]
    endpoints = {d.words[d.wire_owners[w]] for w in removed}
    assert endpoints == {"hard", "read"}


def test_3_composition_matches_golden(lex):
    doc = load_document(read_json(f"{FIXTURES}/treasure_hunt.json"))
    td = lower_document(doc, lex)
    assert len(td.states) == 4
    with open(f"{FIXTURES}/treasure_hunt_wires.golden.json",
              encoding="utf-8") as f:
        golden = {int(k): v for k, v in json.load(f).items()}
    assert wire_box_sequences(td) == golden


def test_4_rewrites_remove_articles_and_merge_modifiers(lex):
    doc = load_document(read_json(f"{FIXTURES}/bike_rewrites.json"))
    assert len(doc.corefs.chains) == 3
    rules = (builtin_rule("determiner"), builtin_rule("noun_modification"))
    td = lower_document(doc, lex, rules)
    words = [b.name for layer in td.layers for b in iter_boxes(layer)]
    assert not {"a", "an", "the"} & set(words)
    state_words = [s.word for s in td.states]
    assert "blue bike" in state_words
    assert len(td.states) == 3  # noun wire count unchanged


def test_5_min_frequency_filter_oracle_equivalence(lex):
    doc = load_document(read_json(f"{FIXTURES}/bike_pruning.json"))
    removed = min_frequency_filter(doc.corefs, 2)
    removed_words = {doc.sentences[si].words[ti] for si, ti in removed}
    assert removed_words == {"basket", "groceries"}

    cfg_removed = PipelineConfig(lexicon=lex, min_noun_frequency=2)
    filtered = diagrams(doc, treeize(doc, cfg_removed), cfg_removed)
    cfg_direct = PipelineConfig(lexicon=lex,
                                remove_nouns=["basket", "groceries"])
    direct = diagrams(doc, treeize(doc, cfg_direct), cfg_direct)
    assert filtered.states == direct.states
    assert filtered.layers == direct.layers


def test_6_sandwich_counts(lex):
    start = time.monotonic()
    doc = load_document(read_json(f"{FIXTURES}/bike_rewrites.json"))
    td = lower_document(doc, lex)  # "a" frames contain modifier circuits
    before_wires = len(td.states)

    for mode, expected in (("shared", 2), ("foliated", 2)):
        out = expand_frames(td, SandwichConfig(mode))
        assert all(isinstance(l, (Box, Spider, Perm)) for l in out.layers)
        assert len(out.states) == before_wires

    # a two-component frame specifically
    from discocirc.frames import Frame, NounState, SentenceDiagram
    body = Frame("f", (0, 1, 2), (Box("g", (1,)), Box("h", (2,))))
    sd = SentenceDiagram([NounState(w, 0, i) for i, w in enumerate("abc")],
                         body)
    two = compose_spelled([sd], CorefMap([[(0, 0)], [(0, 1)], [(0, 2)]]))
    shared = expand_frames(two, SandwichConfig("shared"))
    foliated = expand_frames(two, SandwichConfig("foliated"))

    def new_boxes(td):
        return {b.name for layer in td.layers for b in iter_boxes(layer)
                if "_top" in b.name or "_bot" in b.name}

    assert len(new_boxes(shared)) == 2
    assert len(new_boxes(foliated)) == 4
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_7_ansatz_parameter_counts(n, L):
    iqp = iqp_block(n, L, [f"s{i}" for i in
                           range(block_symbol_count("iqp", n, L))])
    sim4 = sim4_block(n, L, [f"s{i}" for i in
                             range(block_symbol_count("sim4", n, L))])
    iqp_params = {g.param for g in iqp if g.param}
    sim4_params = {g.param for g in sim4 if g.param}
    if n >= 2:
        assert len(iqp_params) == L * (n - 1)
    else:
        assert len(iqp_params) == 3  # lone-qubit rotation triple
    assert len(sim4_params) == L * (3 * n - 1)


def test_8_compiled_blocks_are_unitary():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    draws = 0
    while draws < 100:
        for kind in ("iqp", "sim4"):
            for n in (1, 2, 3, 4):
                L = int(rng.integers(1, 4))
                count = block_symbol_count(kind, n, L)
                syms = [f"s{i}" for i in range(count)]
                block = (iqp_block if kind == "iqp" else sim4_block)(
                    n, L, syms)
                c = Circuit(n_qubits=n, gates=block,
                            outputs=list(range(n)))
                params = {s: rng.uniform(0, 2 * np.pi) for s in syms}
                U = circuit_unitary(c, params)
                err = np.max(np.abs(U.conj().T @ U - np.eye(2 ** n)))
                assert err < 1e-9
                draws += 1
    assert time.monotonic() - start < 60.0


def test_9_gradient_methods_agree(lex):
    start = time.monotonic()
    rng = np.random.default_rng(9)
    fixtures = ["reading.json", "treasure_hunt.json", "bike_rewrites.json"]
    for name in fixtures:
        doc = load_document(read_json(f"{FIXTURES}/{name}"))
        for kind in ("iqp", "sim4"):
            td = lower_document(doc, lex)
            td = append_merge_box(expand_frames(td,
                                                SandwichConfig("shared")))
            c = compile(td, AnsatzConfig(kind, 1, 1, seed=9))
            dl = rng.normal(size=2)
            shift = gradient(c, c.symbols, dl, "parameter_shift")
            fd = fd_gradient(c, c.symbols, dl)
            adj = gradient(c, c.symbols, dl, "adjoint")
            for sym in shift:
                assert shift[sym] == pytest.approx(fd[sym], abs=1e-4)
                assert shift[sym] == pytest.approx(adj[sym], abs=1e-10)
    assert time.monotonic() - start < 60.0


def test_10_two_topic_training_reaches_085():
    start = time.monotonic()
    dataset = classification_dataset(300, seed=11)
    _, history = train(dataset, TrainConfig(
        epochs=60, batch_size=10, learning_rate=0.01, seed=11,
        gradient="adjoint"))
    test_acc = history.rows[-1][3]
    assert test_acc >= 0.85
    assert time.monotonic() - start < 300.0


def test_11_long_document_composes_quickly(lex):
    start = time.monotonic()
    rng = random.Random(12)
    subjects = ["Alice", "Bob"]
    verbs = ["loves", "reads", "makes", "enjoys", "saw"]
    objects = ["books", "music", "bread", "soup", "code", "work"]
    sentences = [[rng.choice(subjects), rng.choice(verbs),
                  "the", rng.choice(objects)] for _ in range(150)]
    doc = parse_text(sentences, lex)
    assert len(doc.sentences) == 150
    td = lower_document(doc, lex)
    td = expand_frames(td, SandwichConfig("shared"))
    assert all(isinstance(l, (Box, Spider, Perm)) for l in td.layers)
    # wire conservation: every chain keeps exactly one wire throughout
    assert len(td.states) == len(doc.corefs.chains)
    assert sorted(wire_order(td)) == sorted(s.chain_id for s in td.states)
    assert time.monotonic() - start < 60.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024  # < 2 GB


def test_12_run_drops_each_artifact_once_read():
    """``pipeline.run`` keeps no stage's artifact past the stage that
    reads it: with the memos warm, a 1,600-sentence chain document peaks
    under 4.0 MB (4.4 MB when the composed diagram stayed bound while
    ``compile`` ran, 5.6 MB when the document, the tree reports and the
    expanded and merged diagrams did too)."""
    source = {"tokens": chain_document(random.Random(2), 1600)}
    cfg = PipelineConfig(max_qubits=10 ** 9)
    run(source, cfg)  # fills the memos
    tracemalloc.start()
    try:
        run(source, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6
