import pytest

from discocirc.ansatz import AnsatzConfig, append_merge_box, compile
from discocirc.compose import compose_document
from discocirc.frames import (Box, Frame, NounState, Perm,
                              SentenceDiagram, iter_boxes)
from discocirc.ingest import CorefMap
from discocirc.sandwich import SandwichConfig, count_frames, expand_frames
from util import wire_order


def two_component_frame():
    body = Frame("frame", (0, 1, 2), (Box("left", (1,)), Box("right", (2,))))
    nouns = [NounState("a", 0, 0), NounState("b", 0, 1), NounState("c", 0, 2)]
    sd = SentenceDiagram(nouns, body)
    return compose_document([sd], CorefMap([[(0, 0)], [(0, 1)], [(0, 2)]]))


def expanded_box_names(td, suffix=("_top", "_bot")):
    names = set()
    for layer in td.layers:
        for box in iter_boxes(layer):
            if any(s in box.name for s in suffix):
                names.add(box.name)
    return names


def test_shared_mode_reuses_one_pair():
    td = expand_frames(two_component_frame(), SandwichConfig("shared"))
    assert count_frames(td) == 0
    assert expanded_box_names(td) == {"frame_top", "frame_bot"}
    # each pair appears once per component
    tops = [b for l in td.layers for b in iter_boxes(l)
            if b.name == "frame_top"]
    assert len(tops) == 2


def test_foliated_mode_mints_pairs_per_layer():
    td = expand_frames(two_component_frame(), SandwichConfig("foliated"))
    assert count_frames(td) == 0
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
    td = compose_document([sd], CorefMap([[(0, 0)]]))
    out = expand_frames(td, SandwichConfig("shared"))
    assert not any(isinstance(l, Perm) for l in out.layers)
    names = [b.name for l in out.layers for b in iter_boxes(l)]
    assert names == ["f_bot", "g", "f_top"]


def test_nested_frames_expand_inside_out():
    body = Frame("outer", (0, 1),
                 (Frame("inner", (1,), (Box("leaf", (1,)),)),))
    sd = SentenceDiagram([NounState("a", 0, 0), NounState("b", 0, 1)], body)
    td = compose_document([sd], CorefMap([[(0, 0)], [(0, 1)]]))
    out = expand_frames(td, SandwichConfig("shared"))
    assert count_frames(out) == 0
    names = [b.name for l in out.layers for b in iter_boxes(l)]
    assert names == ["outer_bot", "inner_bot", "leaf",
                     "inner_top", "outer_top"]


def test_gapped_component_needs_no_routing():
    # a component on non-adjacent wires keeps its wires, with no routing
    body = Frame("f", (0, 1, 2), (Box("g", (0, 2)),))
    sd = SentenceDiagram(
        [NounState(w, 0, i) for i, w in enumerate("abc")], body)
    td = compose_document([sd], CorefMap([[(0, 0)], [(0, 1)], [(0, 2)]]))
    out = expand_frames(td, SandwichConfig("shared"))
    assert not any(isinstance(l, Perm) for l in out.layers)
    assert [b.wires for l in out.layers for b in iter_boxes(l)
            if b.name == "g"] == [(0, 2)]
    assert wire_order(out) == [0, 1, 2]
    c = compile(append_merge_box(out), AnsatzConfig())
    assert "SWAP" not in {g.name for g in c.gates}


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        SandwichConfig("layered")
