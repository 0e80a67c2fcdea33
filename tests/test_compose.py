import json
import random

import pytest

from discocirc.compose import (compose_document, text_diagram_to_dot,
                               text_diagram_to_json, wire_box_sequences)
from discocirc.errors import ChainMismatch
from discocirc.frames import (Box, Identity, NounState, Par, Perm,
                              SentenceDiagram, Spider, element_wires,
                              sentence_diagram)
from discocirc.ingest import CorefMap, Lexicon, load_document, parse_text
from discocirc.pipeline import PipelineConfig, diagrams, treeize
from discocirc.trees import build_trees
from util import apply_layer, wire_order

FIXTURES = "tests/fixtures"


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def document_diagram(path, lex):
    doc = load_document(f"{FIXTURES}/{path}")
    diagrams = []
    for si, d in enumerate(doc.sentences):
        noun_tokens = frozenset(
            ti for ti, (w, _) in enumerate(d.tokens) if lex.is_noun(w))
        forest = build_trees(d).forest
        diagrams.append(sentence_diagram(forest, frozenset(), noun_tokens,
                                         si))
    return compose_document(diagrams, doc.corefs)


def test_three_sentences_share_chains(lex):
    td = document_diagram("treasure_hunt.json", lex)
    assert [s.word for s in td.states] == ["Alice", "map", "clues",
                                           "treasure"]
    assert td.chain_order == {0: 0, 1: 1, 2: 2, 3: 3}
    assert wire_order(td) == [0, 1, 2, 3]


def test_box_sequences_match_golden(lex):
    td = document_diagram("treasure_hunt.json", lex)
    with open(f"{FIXTURES}/treasure_hunt_wires.golden.json",
              encoding="utf-8") as f:
        golden = {int(k): v for k, v in json.load(f).items()}
    assert wire_box_sequences(td) == golden


def test_single_sentence_needs_no_permutation(lex):
    td = document_diagram("reading.json", lex)
    assert len(td.states) == 2
    assert not any(isinstance(l, (Perm, Spider)) for l in td.layers)


def test_permutations_come_in_cancelling_pairs(lex):
    td = document_diagram("treasure_hunt.json", lex)
    perms = [l for l in td.layers if isinstance(l, Perm)]
    assert len(perms) % 2 == 0
    # replaying all layers restores the introduction order
    assert wire_order(td) == [s.chain_id for s in td.states]


def test_within_sentence_duplicate_uses_spiders():
    nouns = [NounState("Bob", 0, 0), NounState("Bob", 0, 2)]
    sd = SentenceDiagram(nouns, Box("saw", (0, 2)))
    td = compose_document([sd], CorefMap([[(0, 0), (0, 2)]]))
    assert len(td.states) == 1
    kinds = [type(l).__name__ for l in td.layers]
    assert kinds == ["Spider", "Box", "Spider"]
    copy, _, merge = td.layers
    assert copy.dagger and not merge.dagger
    assert wire_order(td) == [0]


def test_unchained_noun_rejected():
    sd = SentenceDiagram([NounState("Alice", 0, 0)], Box("runs", (0,)))
    with pytest.raises(ChainMismatch):
        compose_document([sd], CorefMap([]))


def test_empty_sentences_skipped(lex):
    doc = load_document(f"{FIXTURES}/reading.json")
    d = doc.sentences[0]
    noun_tokens = frozenset(
        ti for ti, (w, _) in enumerate(d.tokens) if lex.is_noun(w))
    sd = sentence_diagram(build_trees(d).forest, frozenset(), noun_tokens, 0)
    td = compose_document([None, sd, None], doc.corefs)
    assert len(td.states) == 2


def test_empty_document():
    td = compose_document([], CorefMap([]))
    assert td.states == [] and td.layers == []


def test_routing_is_one_perm_pair_per_sentence(lex):
    rng = random.Random(3)
    verbs = ["reads", "loves", "likes", "bought", "found"]
    objects = ["books", "map", "music", "bread", "code", "story"]
    cfg = PipelineConfig(lexicon=lex)
    for _ in range(20):
        n = rng.randint(2, 9)
        sentences = [["Alice", "reads", "the", "books"]] + [
            ["She", rng.choice(verbs), "the", rng.choice(objects)]
            for _ in range(n - 1)]
        doc = parse_text(sentences, lex)
        td = diagrams(doc, treeize(doc, cfg), cfg)
        assert not any(isinstance(el, Identity) for layer in td.layers
                       if isinstance(layer, Par) for el in layer.elements)
        at = [i for i, layer in enumerate(td.layers)
              if isinstance(layer, Perm)]
        assert at and len(at) % 2 == 0 and len(at) <= 2 * n
        for i, j in zip(at[0::2], at[1::2]):
            fwd, inv = td.layers[i], td.layers[j]
            routed = apply_layer(list(fwd.wires), fwd)
            assert list(inv.wires) == routed
            assert apply_layer(routed, inv) == list(fwd.wires)
            # one sentence body between the pair, on the routed tail
            bodies = [layer for layer in td.layers[i + 1:j]
                      if not isinstance(layer, Spider)]
            assert len(bodies) == 1
            chains = {w[0] if isinstance(w, tuple) else w
                      for w in element_wires(bodies[0])}
            assert set(routed[-len(chains):]) == chains
        assert wire_order(td) == [s.chain_id for s in td.states]


def test_apply_layer_rejects_wrong_domain():
    layer = Perm((0, 1), (1, 0))
    with pytest.raises(ChainMismatch):
        apply_layer([1, 0], layer)


def test_json_and_dot_dumps(lex):
    td = document_diagram("treasure_hunt.json", lex)
    data = text_diagram_to_json(td)
    assert [s["word"] for s in data["states"]] == ["Alice", "map", "clues",
                                                   "treasure"]
    assert data["chain_order"] == {"0": 0, "1": 1, "2": 2, "3": 3}
    dot = text_diagram_to_dot(td)
    assert dot.startswith("digraph") and "followed" in dot
