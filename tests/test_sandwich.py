import logging
import random

import pytest

from discocirc.ansatz import AnsatzConfig, append_merge_box, compile
from discocirc.compose import TextDiagram
from discocirc.frames import (Box, Frame, NounState, Par, Perm,
                              SentenceDiagram, Spider, iter_boxes)
from discocirc.ingest import CorefMap, Lexicon, parse_text, read_json
from discocirc.pipeline import PipelineConfig, diagrams, run, treeize
from discocirc.sandwich import SandwichConfig, expand_frames
from util import (compose_spelled, expand_oracle, random_element,
                  wire_order)

FIXTURES = "tests/fixtures"


def two_component_frame():
    body = Frame("frame", (0, 1, 2), (Box("left", (1,)), Box("right", (2,))))
    nouns = [NounState("a", 0, 0), NounState("b", 0, 1), NounState("c", 0, 2)]
    sd = SentenceDiagram(nouns, body)
    return compose_spelled([sd], CorefMap([[(0, 0)], [(0, 1)], [(0, 2)]]))


def expanded_box_names(td, suffix=("_top", "_bot")):
    names = set()
    for layer in td.layers:
        for box in iter_boxes(layer):
            if any(s in box.name for s in suffix):
                names.add(box.name)
    return names


def test_shared_mode_reuses_one_pair():
    td = expand_frames(two_component_frame(), SandwichConfig("shared"))
    assert all(isinstance(l, (Box, Spider, Perm)) for l in td.layers)
    assert expanded_box_names(td) == {"frame_top", "frame_bot"}
    # each pair appears once per component
    tops = [b for l in td.layers for b in iter_boxes(l)
            if b.name == "frame_top"]
    assert len(tops) == 2 and tops[0] is tops[1]


def test_foliated_mode_mints_pairs_per_layer():
    td = expand_frames(two_component_frame(), SandwichConfig("foliated"))
    assert all(isinstance(l, (Box, Spider, Perm)) for l in td.layers)
    assert expanded_box_names(td) == {
        "frame_top_1", "frame_bot_1", "frame_top_2", "frame_bot_2"}


def test_expansion_preserves_wires_and_order():
    before = two_component_frame()
    after = expand_frames(before, SandwichConfig("shared"))
    assert after.states == before.states
    assert after.chain_order == before.chain_order
    assert wire_order(after) == wire_order(before)


def test_component_order_is_layer_order():
    td = expand_frames(two_component_frame(), SandwichConfig("shared"))
    inner = [b.name for l in td.layers for b in iter_boxes(l)
             if b.name in ("left", "right")]
    assert inner == ["left", "right"]


def test_single_component_covering_all_wires_needs_no_swaps():
    body = Frame("f", (0,), (Box("g", (0,)),))
    sd = SentenceDiagram([NounState("a", 0, 0)], body)
    td = compose_spelled([sd], CorefMap([[(0, 0)]]))
    out = expand_frames(td, SandwichConfig("shared"))
    assert not any(isinstance(l, Perm) for l in out.layers)
    names = [b.name for l in out.layers for b in iter_boxes(l)]
    assert names == ["f_bot", "g", "f_top"]


def test_nested_frames_expand_inside_out():
    body = Frame("outer", (0, 1),
                 (Frame("inner", (1,), (Box("leaf", (1,)),)),))
    sd = SentenceDiagram([NounState("a", 0, 0), NounState("b", 0, 1)], body)
    td = compose_spelled([sd], CorefMap([[(0, 0)], [(0, 1)]]))
    out = expand_frames(td, SandwichConfig("shared"))
    assert all(isinstance(l, (Box, Spider, Perm)) for l in out.layers)
    names = [b.name for l in out.layers for b in iter_boxes(l)]
    assert names == ["outer_bot", "inner_bot", "leaf",
                     "inner_top", "outer_top"]


def test_gapped_component_needs_no_routing():
    # a component on non-adjacent wires keeps its wires, with no routing
    body = Frame("f", (0, 1, 2), (Box("g", (0, 2)),))
    sd = SentenceDiagram(
        [NounState(w, 0, i) for i, w in enumerate("abc")], body)
    td = compose_spelled([sd], CorefMap([[(0, 0)], [(0, 1)], [(0, 2)]]))
    out = expand_frames(td, SandwichConfig("shared"))
    assert not any(isinstance(l, Perm) for l in out.layers)
    assert [b.wires for l in out.layers for b in iter_boxes(l)
            if b.name == "g"] == [(0, 2)]
    assert wire_order(out) == [0, 1, 2]
    c = compile(append_merge_box(out), AnsatzConfig())
    assert "SWAP" not in {g.name for g in c.gates}


@pytest.mark.parametrize("mode", ["shared", "foliated"])
@pytest.mark.parametrize("source", [
    *(f"{FIXTURES}/{name}.json" for name in (
        "bike_pruning", "bike_rewrites", "corpus", "hard_reading",
        "music_piano", "reading", "treasure_hunt")),
    # "Alice." pre-parsed: a noun under no box, an Identity body
    {"sentences": [{"tokens": ["Alice"], "types": [[["n", 0]]],
                    "cups": []}], "corefs": []}])
def test_documents_expand_to_flat_layers(source, mode):
    if isinstance(source, str):
        source = read_json(source)
    td = run(source, PipelineConfig(), stage="diagram")
    out = expand_frames(td, SandwichConfig(mode))  # stamped from its rows
    assert out.states == td.states
    assert all(isinstance(l, (Box, Spider, Perm)) for l in out.layers)
    hand_built = TextDiagram(td.states, list(td.layers))
    assert typed(out.layers) == typed(
        expand_frames(hand_built, SandwichConfig(mode)).layers) == typed(
        expand_oracle(td.layers, mode))


@pytest.mark.parametrize("mode", ["shared", "foliated"])
def test_a_composed_diagram_expands_as_its_layers_do(mode, caplog):
    """On the corpus inputs under every rule set and noun filter, a
    composed diagram's rows stamp what its layers, read before
    expansion or after it, and a hand-built copy of them expand to, and
    what the oracle expands them to.  The cases hold spiders, two-root
    sentences, nested frames and sentences emptied by a filter."""
    import test_shape_memo
    cases = test_shape_memo.corpus_cases(Lexicon.builtin())
    assert any(cfg.remove_nouns for _, cfg in cases)
    assert any(cfg.min_noun_frequency for _, cfg in cases)
    cfg = SandwichConfig(mode)
    seen = {kind: 0 for kind in ("Spider", "Par", "nested")}
    caplog.set_level(logging.INFO, logger="discocirc.compose")
    for doc, pipeline_cfg in cases:
        after = diagrams(doc, treeize(doc, pipeline_cfg), pipeline_cfg)
        stamped = expand_frames(after, cfg)
        before = diagrams(doc, treeize(doc, pipeline_cfg), pipeline_cfg)
        layers = before.layers
        assert after.layers == layers
        want = typed(expand_oracle(layers, mode))
        assert typed(stamped.layers) == want
        assert typed(expand_frames(before, cfg).layers) == want
        hand_built = TextDiagram(before.states, list(layers))
        assert typed(expand_frames(hand_built, cfg).layers) == want
        assert stamped.states == before.states
        for kind in ("Spider", "Par"):
            seen[kind] += any(type(l).__name__ == kind for l in layers)
        seen["nested"] += any(frame_depth(l) >= 2 for l in layers)
    emptied = sum("empty after filtering" in m for m in caplog.messages)
    assert min(seen.values()) >= 10 and emptied >= 100


def test_reading_layers_does_not_change_how_a_diagram_expands(monkeypatch):
    """A composed diagram keeps its rows once its layers are read:
    expansion looks each row's template up once either way, and stamps
    the same layers."""
    from discocirc import sandwich
    lex = Lexicon.builtin()
    doc = parse_text([["Alice", "reads", "books"], ["Bob", "loves", "music"],
                      ["She", "reads", "herself"]], lex)
    cfg = PipelineConfig(lexicon=lex)
    lookups, template = [], sandwich._template

    def counted(*args):
        lookups.append(args)
        return template(*args)

    monkeypatch.setattr(sandwich, "_template", counted)
    unread = expand_frames(diagrams(doc, treeize(doc, cfg), cfg),
                           cfg.sandwich)
    assert len(lookups) == 3
    td = diagrams(doc, treeize(doc, cfg), cfg)
    assert len(td.layers) == 7  # Perm and spider pairs round the third row
    read = expand_frames(td, cfg.sandwich)
    assert len(lookups) == 6 and lookups[3:] == lookups[:3]
    assert typed(read.layers) == typed(unread.layers) == typed(
        expand_oracle(td.layers, cfg.sandwich.mode))


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        SandwichConfig("layered")


def frame_depth(el) -> int:
    if isinstance(el, Frame):
        return 1 + max(map(frame_depth, el.components))
    if isinstance(el, Par):
        return max(map(frame_depth, el.elements))
    return 0


def typed(layers) -> list:
    # named tuples of equal fields compare equal across types
    return [(type(layer).__name__, layer) for layer in layers]


@pytest.mark.parametrize("mode", ["shared", "foliated"])
def test_random_nested_frames_expand_as_the_oracle(mode):
    rng = random.Random(8)
    elements = [random_element(rng, rng.randint(3, 5)) for _ in range(250)]
    frames = [f for el in elements for f in iter_boxes(el)
              if isinstance(f, Frame)]
    assert sum(frame_depth(el) >= 3 for el in elements) >= 150
    assert sum(len(f.components) == 1 for f in frames) >= 300
    assert sum(len(f.components) > 1 for f in frames) >= 600
    assert sum(isinstance(c, Par) for f in frames
               for c in f.components) >= 200
    states = [NounState(f"n{w}", 0, w, w) for w in range(8)]
    cfg = SandwichConfig(mode)
    for el in elements:
        got = expand_frames(TextDiagram(states, [el]), cfg)
        assert typed(got.layers) == typed(expand_oracle([el], mode))
        assert got.states == states
    # a whole document at once, with the layers composition adds
    layers = elements + [Perm((3, 1), (6, 7)), Spider((2, (2, 1)), 2, True)]
    rng.shuffle(layers)
    got = expand_frames(TextDiagram(states, layers), cfg)
    assert typed(got.layers) == typed(expand_oracle(layers, mode))
    # the elements as the bodies of a composed document, on 40 chains
    # that its sentences share and mention more than once each
    sentences = [SentenceDiagram([NounState(f"n{w}", si, w)
                                  for w in range(8)], el)
                 for si, el in enumerate(elements)]
    chains = [[] for _ in range(40)]
    for si in range(len(sentences)):
        for w in range(8):
            chains[rng.randrange(40)].append((si, w))
    td = compose_spelled(sentences, CorefMap(chains))
    stamped = expand_frames(td, cfg)
    assert typed(stamped.layers) == typed(expand_oracle(td.layers, mode))
    for kind in (Perm, Spider):
        assert sum(isinstance(l, kind) for l in td.layers) >= 200
