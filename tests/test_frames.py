import pickle
import random

import pytest

from discocirc.frames import (Box, Frame, Identity, NounState, Par, Perm,
                              Spider, dump_element,
                              iter_boxes, map_wires, min_frequency_filter,
                              sentence_diagram)
from discocirc.ingest import CorefMap, Lexicon, load_document, read_json
from discocirc.pipeline import PipelineConfig, removed_mentions
from discocirc.trees import build_trees
from util import element_wires, random_loopy_diagram

FIXTURES = "tests/fixtures"


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def lower(path, lex, sentence=0, remove=frozenset()):
    doc = load_document(read_json(f"{FIXTURES}/{path}"))
    d = doc.sentences[sentence]
    noun_tokens = frozenset(
        ti for ti, (w, _) in enumerate(d.tokens) if lex.is_noun(w))
    forest = build_trees(d).forest
    return sentence_diagram(forest, remove, noun_tokens, sentence)


def test_transitive_sentence_is_single_box(lex):
    sd = lower("reading.json", lex)
    assert [n.word for n in sd.nouns] == ["Alice", "books"]
    assert sd.body == Box("reads", (0, 2))


def test_modifier_becomes_nested_frame(lex):
    doc = load_document(read_json(f"{FIXTURES}/bike_rewrites.json"))
    d = doc.sentences[0]  # Alice bought a blue bike
    noun_tokens = frozenset(
        ti for ti, (w, _) in enumerate(d.tokens) if lex.is_noun(w))
    [root] = build_trees(d).forest
    body = sentence_diagram([root], frozenset(), noun_tokens, 0).body
    assert isinstance(body, Frame) and body.name == "bought"
    assert body.wires == (0, 4)
    [article] = body.components
    assert isinstance(article, Frame) and article.name == "a"
    [blue] = article.components
    assert blue == Box("blue", (4,))


def test_noun_leaf_contributes_state_and_wire(lex):
    sd = lower("reading.json", lex)
    assert [n.token_index for n in sd.nouns] == [0, 2]
    assert element_wires(sd.body) == (0, 2)


def test_removed_noun_vanishes(lex):
    sd = lower("reading.json", lex, remove=frozenset({2}))
    assert [n.word for n in sd.nouns] == ["Alice"]
    assert sd.body == Box("reads", (0,))


def test_all_nouns_removed_leaves_no_nouns(lex):
    sd = lower("reading.json", lex, remove=frozenset({0, 2}))
    assert sd.nouns == [] and sd.body == Identity(())


def test_min_frequency_filter_drops_rare_chains():
    coref = CorefMap([[(0, 0), (1, 0)], [(0, 3)], [(1, 4)]])
    removed = min_frequency_filter(coref, 2)
    assert removed == {(0, 3), (1, 4)}
    assert min_frequency_filter(coref, 1) == set()
    with pytest.raises(ValueError):
        min_frequency_filter(coref, 0)


@pytest.mark.parametrize("k", [0, -3])
def test_pipeline_refuses_a_frequency_floor_below_one(lex, k):
    """A floor of 0 reaches the filter's check, as -3 does, rather than
    reading as no filter."""
    doc = load_document(read_json(f"{FIXTURES}/reading.json"))
    cfg = PipelineConfig(lexicon=lex, min_noun_frequency=k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        removed_mentions(doc, cfg)


def test_prune_matches_direct_generation(lex):
    # "It has a large basket": the frame over the basket keeps only boxes
    # on the removed wire, so each lowers to nothing and the verb frame
    # degrades to a box over the surviving noun
    full = lower("bike_rewrites.json", lex, sentence=1)
    assert full.body == Frame("has", (0, 4), (
        Frame("a", (4,), (Box("large", (4,)),)),))
    direct = lower("bike_rewrites.json", lex, sentence=1,
                   remove=frozenset({4}))
    assert [n.word for n in direct.nouns] == ["It"]
    assert direct.body == Box("has", (0,))


def test_map_wires_relabels_everything():
    """A word-free element's wires go through the map, and its names,
    token-index tuples, are spelled in the words."""
    el = Par((Frame((0,), (0, 1), (Box((1, 2), (1,)),)), Identity((2,))))
    mapped = map_wires(el, lambda w: w + 10, ("f", "g", "h"))
    assert element_wires(mapped) == (10, 11, 12)
    names = [b.name for b in iter_boxes(mapped)]
    assert names == ["f", "g h"]


def test_dumps_render(lex):
    sd = lower("bike_rewrites.json", lex)
    text = dump_element(sd.body)
    assert text.splitlines()[0].startswith("frame bought")


def test_wires_are_sorted_on_loopy_trees():
    """On trees whose subtrees interleave, each box and frame still lists
    the wires of the nouns below it in token order."""
    rng = random.Random(1)
    for _ in range(3000):
        d = random_loopy_diagram(rng)
        noun_tokens = frozenset(
            t for t in range(len(d.tokens)) if rng.random() < 0.6)
        sd = sentence_diagram(build_trees(d).forest, frozenset(),
                              noun_tokens, 0)
        tokens = [n.token_index for n in sd.nouns]
        assert tokens == sorted(tokens)
        for el in iter_boxes(sd.body):
            assert list(el.wires) == sorted(el.wires)


# one value of every element kind and of a noun state, as (type,
# positional arguments, the same as keyword arguments)
VALUES = [
    (Box, ("f", (0, 2), True), {"name": "f", "wires": (0, 2), "merge": True}),
    (Frame, ("f", (0,), (Box("g", (0,)),)),
     {"name": "f", "wires": (0,), "components": (Box("g", (0,)),)}),
    (Identity, ((1, 2),), {"wires": (1, 2)}),
    (Par, ((Box("g", (0,)), Box("h", (1,))),),
     {"elements": (Box("g", (0,)), Box("h", (1,)))}),
    (Perm, ((3, 1), (0, 2)), {"wires": (3, 1), "positions": (0, 2)}),
    (Spider, ((4, (4, 1)), 4, True),
     {"in_wires": (4, (4, 1)), "out_wire": 4, "dagger": True}),
    (NounState, ("Alice", 1, 0, 3),
     {"word": "Alice", "sentence_index": 1, "token_index": 0,
      "chain_id": 3}),
]


@pytest.mark.parametrize("kind,args,kwargs", VALUES,
                         ids=[kind.__name__ for kind, _, _ in VALUES])
def test_elements_are_immutable_values(kind, args, kwargs):
    value = kind(*args)
    assert value == kind(**kwargs)
    assert hash(value) == hash(kind(*args))
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == kind(**kwargs)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is kind and copy == value


def test_defaults_are_kept():
    assert Box("f", (0,)).merge is False
    assert Spider((0, (0, 1)), 0).dagger is False
    assert NounState("Alice", 0, 0).chain_id == -1
