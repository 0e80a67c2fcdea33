import json
import random

import pytest

from discocirc.compose import (compose_document, text_diagram_to_dot,
                               text_diagram_to_json, wire_box_sequences)
from discocirc.errors import ChainMismatch
from discocirc.frames import (Box, Identity, NounState, Par, Perm,
                              SentenceDiagram, Spider, dump_element,
                              map_wires, sentence_diagram)
from discocirc.ingest import (CorefMap, Lexicon, load_document, parse_text,
                              read_json)
from discocirc.pipeline import PipelineConfig, diagrams, ingest, run, treeize
from discocirc.trees import build_trees
from util import (apply_layer, chain_document, compose_oracle,
                  compose_spelled, element_wires, entity_document, replay,
                  wire_order)

FIXTURES = "tests/fixtures"


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def document_diagram(path, lex):
    doc = load_document(read_json(f"{FIXTURES}/{path}"))
    diagrams = []
    for si, d in enumerate(doc.sentences):
        noun_tokens = frozenset(
            ti for ti, (w, _) in enumerate(d.tokens) if lex.is_noun(w))
        forest = build_trees(d).forest
        diagrams.append(sentence_diagram(forest, frozenset(), noun_tokens,
                                         si))
    return compose_spelled(diagrams, doc.corefs)


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
    td = compose_spelled([sd], CorefMap([[(0, 0), (0, 2)]]))
    assert len(td.states) == 1
    kinds = [type(l).__name__ for l in td.layers]
    assert kinds == ["Spider", "Box", "Spider"]
    copy, _, merge = td.layers
    assert copy.dagger and not merge.dagger
    assert wire_order(td) == [0]


def test_unchained_noun_rejected():
    sd = SentenceDiagram([NounState("Alice", 0, 0)], Box("runs", (0,)))
    with pytest.raises(ChainMismatch):
        compose_spelled([sd], CorefMap([]))


def test_empty_sentences_skipped(lex, caplog):
    doc = load_document(read_json(f"{FIXTURES}/reading.json"))
    d = doc.sentences[0]
    noun_tokens = frozenset(
        ti for ti, (w, _) in enumerate(d.tokens) if lex.is_noun(w))
    sd = sentence_diagram(build_trees(d).forest, frozenset(), noun_tokens, 0)
    empty = SentenceDiagram([], Identity(()))
    with caplog.at_level("INFO", logger="discocirc.compose"):
        td = compose_spelled([empty, sd, empty], doc.corefs)
    assert len(td.states) == 2
    assert caplog.messages == ["sentence 0 empty after filtering",
                               "sentence 2 empty after filtering"]


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


def test_composed_layers_are_built_once_when_first_read(lex, monkeypatch):
    """Composing relabels no body; the first read of ``layers`` relabels
    each sentence body once, and later reads and ``expand_frames``
    none.  The diagram equals one built by hand from its layers."""
    from discocirc import compose
    from discocirc.sandwich import SandwichConfig, expand_frames
    doc = parse_text([["Alice", "reads", "books"], ["Bob", "loves", "music"],
                      ["She", "reads", "herself"]], lex)
    cfg = PipelineConfig(lexicon=lex)
    reports = treeize(doc, cfg)
    calls = []

    def counted(*args):
        calls.append(args)
        return map_wires(*args)

    monkeypatch.setattr(compose, "map_wires", counted)
    td = diagrams(doc, reports, cfg)
    expand_frames(td, SandwichConfig())
    assert calls == []
    layers = td.layers
    assert len(calls) == 3 and td.layers is layers
    expand_frames(td, SandwichConfig())
    assert len(calls) == 3
    hand_built = compose.TextDiagram(td.states, list(layers))
    assert hand_built == td and hand_built.layers == layers
    assert hand_built != compose.TextDiagram(td.states, layers[:-1])


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


@pytest.mark.parametrize("sentences, kinds", [
    # only new chains, each mentioned once: the bodies alone
    ([["Alice", "reads", "books"], ["Bob", "loves", "music"]],
     ["Box", "Box"]),
    # a new chain mentioned twice: a spider pair around its body
    ([["Alice", "reads", "herself"], ["Bob", "reads", "books"]],
     ["Spider", "Box", "Spider", "Box"]),
    # an old chain already at the tail of the wire order: no Perm
    ([["Alice", "runs"], ["She", "reads", "music"]], ["Box", "Box"]),
    # an old chain elsewhere: a Perm pair around its body
    ([["Alice", "reads", "books"], ["She", "reads", "music"]],
     ["Box", "Perm", "Box", "Perm"]),
])
def test_routing_and_spiders_only_where_a_sentence_needs_them(
        lex, sentences, kinds):
    doc = parse_text(sentences, lex)
    cfg = PipelineConfig(lexicon=lex)
    td = diagrams(doc, treeize(doc, cfg), cfg)
    assert [type(layer).__name__ for layer in td.layers] == kinds
    assert wire_order(td) == [s.chain_id for s in td.states]


def test_compose_document_equals_the_reference_composer(lex, monkeypatch):
    """On the corpus inputs under every rule set and noun filter, and on
    the memo tests' token documents, with the sentences lowered through
    no memo and then composed by ``compose_document`` and by
    ``util.compose_oracle``."""
    import test_shape_memo
    cases = test_shape_memo.corpus_cases(lex) + [
        (parse_text(tokens, lex), PipelineConfig(lexicon=lex))
        for tokens in test_shape_memo.token_documents(lex)]
    got = [test_shape_memo.oracle_diagram(doc, cfg) for doc, cfg in cases]
    monkeypatch.setattr(test_shape_memo, "compose_spelled", compose_oracle)
    assert [test_shape_memo.oracle_diagram(doc, cfg)
            for doc, cfg in cases] == got
    # the memo path composes the same
    assert [text_diagram_to_json(diagrams(doc, treeize(doc, cfg), cfg))
            for doc, cfg in cases] == got


def mixed_document(rng: random.Random, n: int) -> list[list[str]]:
    """Alice, then ``n`` sentences drawn from a "she" chain sentence,
    an entity sentence and "she reads herself"."""
    return chain_document(rng, 1) + [
        rng.choice([chain_document(rng, 2)[1], entity_document(rng, 1)[0],
                    ["she", "reads", "herself"]]) for _ in range(n)]


def test_a_prefix_of_a_document_composes_to_a_prefix(lex):
    """Composing the first k sentences of a token document gives states
    and layers that begin the whole document's, and the same wire order
    after them (Coecke, arXiv:1904.03478: a text's circuit is its
    sentences' circuits composed)."""
    cfg = PipelineConfig(lexicon=lex)

    def composed(tokens):
        return run({"tokens": tokens}, cfg, stage="diagram")

    def assert_prefix(part, whole):
        assert whole.states[:len(part.states)] == part.states
        assert whole.layers[:len(part.layers)] == part.layers

    rng = random.Random(11)
    seen = {Perm: 0, Spider: 0}
    for _ in range(200):
        tokens = mixed_document(rng, rng.randint(1, 8))
        whole = composed(tokens)
        steps, _ = replay(whole)
        for k in range(1, len(tokens)):
            part = composed(tokens[:k])
            assert_prefix(part, whole)
            assert steps[len(part.layers) - 1][1] == wire_order(part)
        for kind in seen:
            seen[kind] += any(type(l) is kind for l in whole.layers)
    assert min(seen.values()) >= 100
    tokens = chain_document(random.Random(2), 6400)
    whole = composed(tokens)
    for k in (1, 3200, 6399):
        assert_prefix(composed(tokens[:k]), whole)


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


def test_one_noun_sentence_dumps_an_identity_layer(lex):
    """A sentence that is one noun has an ``Identity`` body over its wire,
    which the JSON dump writes as an ``id`` layer."""
    data = {"sentences": [{"tokens": ["Alice"], "types": [[["n", 0]]]}]}
    td = run(data, PipelineConfig(lexicon=lex), stage="diagram")
    assert td.layers == [Identity((0,))]
    assert text_diagram_to_json(td)["layers"] == \
        [{"kind": "id", "wires": [0]}]


def test_a_chain_mentioned_twice_dumps_spider_layers(lex):
    """"She reads herself" mentions Alice's chain twice: a spider copy
    before the box and a merge after it, the second mention on the copy
    id ``[0, 1]``."""
    data = {"tokens": [["Alice", "found", "a", "map"],
                       ["She", "reads", "herself"]]}
    td = run(data, PipelineConfig(lexicon=lex), stage="diagram")
    layers = json.loads(json.dumps(text_diagram_to_json(td)))["layers"]
    assert layers[2:5] == [
        {"kind": "spider", "in_wires": [0, [0, 1]], "out_wire": 0,
         "dagger": True},
        {"kind": "box", "name": "reads", "wires": [0, [0, 1]]},
        {"kind": "spider", "in_wires": [0, [0, 1]], "out_wire": 0,
         "dagger": False}]
    assert [dump_element(layer) for layer in td.layers[2:5]] == [
        "spider-copy [0, (0, 1)] ~ 0", "box reads [0, (0, 1)]",
        "spider-merge [0, (0, 1)] ~ 0"]


def test_a_two_root_sentence_dumps_a_par_layer(lex):
    """Two heads, "sleeps" and "runs", make a two-tree forest, which
    lowers to one ``par`` layer of both boxes."""
    data = {"sentences": [{
        "tokens": ["Alice", "sleeps", "Bob", "runs"],
        "types": [[["n", 0]], [["n", 1], ["s", 0]], [["n", 0]],
                  [["n", 1], ["s", 0]]],
        "cups": [[0, 1], [3, 4]]}]}
    td = run(data, PipelineConfig(lexicon=lex), stage="diagram")
    assert text_diagram_to_json(td)["layers"] == [
        {"kind": "par", "elements": [
            {"kind": "box", "name": "sleeps", "wires": [0]},
            {"kind": "box", "name": "runs", "wires": [1]}]}]
    assert [dump_element(layer) for layer in td.layers] == [
        "par\n  box sleeps [0]\n  box runs [1]"]
