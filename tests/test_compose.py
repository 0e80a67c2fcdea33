import json
import random

import pytest

from discocirc.compose import (compose_document, text_diagram_to_dot,
                               text_diagram_to_json, wire_box_sequences)
from discocirc.errors import ChainMismatch
from discocirc.frames import (Box, Identity, NounState, Par, Perm,
                              SentenceDiagram, Spider, sentence_diagram)
from discocirc.ingest import (CorefMap, Lexicon, load_document, parse_text,
                              read_json)
from discocirc.pipeline import PipelineConfig, diagrams, ingest, treeize
from discocirc.trees import build_trees
from util import apply_layer, element_wires, replay, wire_order

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


def test_unchained_nouns_get_their_own_wires(lex):
    raw = read_json(f"{FIXTURES}/treasure_hunt.json")
    raw["corefs"] = []
    doc = ingest(raw, lex)
    td = diagrams(doc, treeize(doc, PipelineConfig()), PipelineConfig())
    # without chains "She" and "It" no longer share Alice's and the
    # clues' wires
    assert [s.word for s in td.states] == \
        ["Alice", "map", "She", "clues", "It", "treasure"]


def test_empty_chain_is_dropped_before_numbering(lex):
    raw = read_json(f"{FIXTURES}/treasure_hunt.json")
    cfg = PipelineConfig()
    want_doc = ingest(raw, lex)
    want = diagrams(want_doc, treeize(want_doc, cfg), cfg)
    raw["corefs"] = [[]] + raw["corefs"]
    doc = ingest(raw, lex)
    td = diagrams(doc, treeize(doc, cfg), cfg)
    assert text_diagram_to_json(td) == text_diagram_to_json(want)
    assert doc.corefs.chains[0] == []


def test_sentence_emptied_by_filtering_adds_no_layer(lex):
    raw = read_json(f"{FIXTURES}/treasure_hunt.json")
    cfg = PipelineConfig(remove_nouns=["It", "treasure"])
    doc = ingest(raw, lex)
    td = diagrams(doc, treeize(doc, cfg), cfg)
    raw["sentences"] = raw["sentences"][:2]
    raw["corefs"] = [[m for m in chain if m[0] < 2]
                     for chain in raw["corefs"] if chain[0][0] < 2]
    short = ingest(raw, lex)
    want = diagrams(short, treeize(short, cfg), cfg)
    assert td.layers == want.layers
    assert [s.word for s in td.states] == ["Alice", "map", "clues"]


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
        steps, _ = replay(td)
        for i, j in zip(at[0::2], at[1::2]):
            fwd, inv = td.layers[i], td.layers[j]
            before, routed = steps[i]
            assert routed != before
            # the pair names the same chains; the inverse restores the
            # order and the forward one sends the chains last
            assert inv.wires == fwd.wires
            assert steps[j] == (routed, before)
            assert routed[-len(fwd.wires):] == list(fwd.wires)
            # one sentence body between the pair, on the routed tail
            bodies = [layer for layer in td.layers[i + 1:j]
                      if not isinstance(layer, Spider)]
            assert len(bodies) == 1
            chains = {w[0] if isinstance(w, tuple) else w
                      for w in element_wires(bodies[0])}
            assert set(fwd.wires) == chains
        assert wire_order(td) == [s.chain_id for s in td.states]


def test_perm_entries_grow_with_mentions_not_wires(lex):
    # one "she" chain and a fresh object per sentence: every sentence
    # after the first is routed, and each Perm names its two chains
    rng = random.Random(0)
    verbs = ["reads", "loves", "likes", "bought", "found"]
    objects = ["books", "map", "music", "bread", "code", "story"]
    sentences = [["Alice", "reads", "a", "books"]] + [
        ["she", rng.choice(verbs), "a", rng.choice(objects)]
        for _ in range(399)]
    cfg = PipelineConfig(lexicon=lex)
    doc = parse_text(sentences, lex)
    td = diagrams(doc, treeize(doc, cfg), cfg)
    mentions = sum(len(chain) for chain in doc.corefs.chains)
    perms = [layer for layer in td.layers if isinstance(layer, Perm)]
    assert len(perms) == 2 * 399
    assert sum(len(p.wires) for p in perms) <= 4 * mentions
    assert wire_order(td) == [s.chain_id for s in td.states]


def test_apply_layer_rejects_wrong_domain():
    for layer in [Perm((2,), (0,)),        # a wire not in the order
                  Perm((0, 0), (0, 1)),    # a wire named twice
                  Perm((0, 1), (1, 1)),    # two wires sent to one place
                  Perm((0,), (2,))]:       # a position past the end
        with pytest.raises(ChainMismatch):
            apply_layer([1, 0], layer)
    assert apply_layer([1, 0], Perm((0, 1), (1, 0))) == [1, 0]
    assert apply_layer([0, 1, 2], Perm((0,), (2,))) == [1, 2, 0]


def test_json_and_dot_dumps(lex):
    td = document_diagram("treasure_hunt.json", lex)
    data = text_diagram_to_json(td)
    assert [s["word"] for s in data["states"]] == ["Alice", "map", "clues",
                                                   "treasure"]
    assert data["chain_order"] == {"0": 0, "1": 1, "2": 2, "3": 3}
    # "She followed the clues" sends Alice and the clues last and back
    assert [layer for layer in data["layers"] if layer["kind"] == "perm"] \
        == [{"kind": "perm", "wires": [0, 2], "positions": [1, 2]},
            {"kind": "perm", "wires": [0, 2], "positions": [0, 2]}]
    dot = text_diagram_to_dot(td)
    assert dot.startswith("digraph") and "followed" in dot
