"""Oracle tests for parsing and building trees once per sentence shape.

Within one ``parse_text`` call, sentences with the same sequence of
lexicon entries share one parser search; within one ``treeize`` call,
sentences with the same types and cups share one ``build_trees``.  The
oracles are the per-sentence stages: ``lexicon_parse`` on every sentence,
and ``build_trees`` plus the rewrites on every sentence.
"""

import random
from pathlib import Path

import pytest

from discocirc import ingest, pipeline
from discocirc.errors import InvalidDiagram, NoParse
from discocirc.grammar import PregroupDiagram, PregroupType, SimpleType
from discocirc.ingest import (CorefMap, Document, Lexicon, lexicon_parse,
                              load_document, parse_text, resolve_pronouns)
from discocirc.pipeline import PipelineConfig, apply_coordination, treeize
from discocirc.rewrite import builtin_rule, rewrite_tree
from discocirc.trees import PregroupTreeNode, build_trees, forest_to_json
from util import (chain_document, entity_document, random_loopy_diagram,
                  topic_dataset)

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = ["bike_pruning", "bike_rewrites", "corpus", "hard_reading",
             "music_piano", "reading", "treasure_hunt"]
RULE_SETS = [(), ("determiner", "noun_modification")]


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def parses(tokens, lex) -> bool:
    try:
        lexicon_parse(tokens, lex)
    except NoParse:
        return False
    return True


def entry_key(tokens, lex) -> tuple:
    """A sentence's lexicon entries, as text."""
    return tuple(tuple(map(str, lex.entries[w])) for w in tokens)


def shape_key(d: PregroupDiagram) -> tuple:
    return tuple(str(ty) for _, ty in d.tokens), d.cups


def token_documents(lex) -> list[list[list[str]]]:
    """The fixtures' parseable sentences, two-topic texts, long chain and
    entity documents, and documents drawn from a pool of those sentences
    with words swapped for others of the same lexicon entries."""
    docs = []
    for name in DOCUMENTS:
        doc = load_document(FIXTURES / f"{name}.json")
        docs.append([list(d.words) for d in doc.sentences
                     if parses(list(d.words), lex)])
    rng = random.Random(5)
    docs += [text for text, _ in topic_dataset(rng, 20)]
    docs += [chain_document(rng, 60), entity_document(rng, 60)]
    pool = [sentence for doc in docs for sentence in doc]
    same_entries: dict[tuple, list[str]] = {}
    for word, entries in lex.entries.items():
        same_entries.setdefault(tuple(map(str, entries)), []).append(word)
    for _ in range(40):
        doc = []
        for _ in range(rng.randint(1, 30)):
            doc.append([
                rng.choice(same_entries[tuple(map(str, lex.entries[w]))])
                if rng.random() < 0.5 else w
                for w in rng.choice(pool)])
        docs.append(doc)
    return docs


def relabel_words(rng, d: PregroupDiagram) -> PregroupDiagram:
    return PregroupDiagram(
        [(f"v{rng.randrange(1000)}", ty) for _, ty in d.tokens], d.cups)


def loopy_documents() -> list[Document]:
    """Documents over a pool of random loopy diagrams, cup subsets of them
    (the same types with other cups) and those relabelled with new words;
    many of the shapes remove cups."""
    rng = random.Random(9)
    docs = []
    for _ in range(60):
        pool = []
        for _ in range(rng.randint(1, 4)):
            d = random_loopy_diagram(rng)
            pool.append(d)
            if d.cups:  # a valid diagram on the same types, fewer cups
                keep = rng.sample(d.cups, rng.randrange(len(d.cups)))
                pool.append(PregroupDiagram(d.tokens, keep))
        sentences = [relabel_words(rng, rng.choice(pool))
                     for _ in range(rng.randint(1, 12))]
        docs.append(Document(sentences, CorefMap([])))
    return docs


def tree_documents(lex) -> list[Document]:
    docs = []
    for name in DOCUMENTS:
        doc = load_document(FIXTURES / f"{name}.json")
        docs.append(doc)
        docs.append(apply_coordination(
            doc, PipelineConfig(lexicon=lex, coordination=True)))
    docs += [parse_text(tokens, lex) for tokens in token_documents(lex)]
    return docs + loopy_documents()


def per_sentence_trees(doc, rules):
    out = []
    for d in doc.sentences:
        report = build_trees(d)
        forest = report.forest
        for rule in rules:
            forest = [rewrite_tree(root, rule).tree for root in forest]
        out.append((forest_to_json(forest), report.removed_cups))
    return out


def test_parse_text_equals_per_sentence_parse(lex):
    shared = 0
    for tokens in token_documents(lex):
        want = [lexicon_parse(sentence, lex) for sentence in tokens]
        doc = parse_text(tokens, lex)
        assert doc.sentences == want
        assert [d.words for d in doc.sentences] == \
            [tuple(sentence) for sentence in tokens]
        oracle = resolve_pronouns(Document(want, CorefMap([])), lex)
        assert doc.corefs.chains == oracle.chains
        keys = [entry_key(sentence, lex) for sentence in tokens]
        shared += len(keys) - len(set(keys))
    assert shared >= 500


def test_treeize_equals_per_sentence_trees(lex):
    shared = removed_shared = 0
    for doc in tree_documents(lex):
        for names in RULE_SETS:
            rules = [builtin_rule(name) for name in names]
            cfg = PipelineConfig(lexicon=lex, rewrites=rules)
            got = [(forest_to_json(r.forest), r.removed_cups)
                   for r in treeize(doc, cfg)]
            assert got == per_sentence_trees(doc, rules)
        seen = set()
        for d, (_, removed) in zip(doc.sentences, got):
            key = shape_key(d)
            if key in seen:
                shared += 1
                removed_shared += bool(removed)
            seen.add(key)
    assert shared >= 700 and removed_shared >= 60


def test_one_search_and_one_build_per_distinct_key(lex, monkeypatch):
    calls = {"parse": 0, "build": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(ingest, "lexicon_parse",
                        counting("parse", ingest.lexicon_parse))
    monkeypatch.setattr(pipeline, "build_trees",
                        counting("build", pipeline.build_trees))
    cfg = PipelineConfig(lexicon=lex)
    for tokens in token_documents(lex):
        calls.update(parse=0, build=0)
        doc = parse_text(tokens, lex)
        assert calls["parse"] == len({entry_key(s, lex) for s in tokens})
        treeize(doc, cfg)
        assert calls["build"] == len({shape_key(d) for d in doc.sentences})
    for doc in loopy_documents():
        calls.update(build=0)
        treeize(doc, cfg)
        assert calls["build"] == len({shape_key(d) for d in doc.sentences})


@pytest.mark.parametrize("names", RULE_SETS)
def test_mutating_one_report_leaves_the_others(lex, names):
    cfg = PipelineConfig(lexicon=lex,
                         rewrites=[builtin_rule(name) for name in names])
    rng = random.Random(4)
    d = random_loopy_diagram(rng)
    while not build_trees(d).removed_cups:
        d = random_loopy_diagram(rng)
    sentences = [relabel_words(rng, d) for _ in range(4)]
    docs = [Document(sentences, CorefMap([])),
            parse_text(entity_document(rng, 5), lex)]
    for doc in docs:
        for i in range(len(doc.sentences)):
            reports = treeize(doc, cfg)
            before = [(forest_to_json(r.forest), list(r.removed_cups))
                      for r in reports]
            for node in [n for root in reports[i].forest
                         for n in root.walk()]:
                node.word = "changed"
                node.children.append(PregroupTreeNode("x", 99, node.out_type))
            reports[i].forest.append(PregroupTreeNode("y", 98, PregroupType()))
            reports[i].removed_cups.append((97, 98))
            after = [(forest_to_json(r.forest), list(r.removed_cups))
                     for r in reports]
            assert after[:i] + after[i + 1:] == before[:i] + before[i + 1:]


def raised(exc_type, fn, *args) -> str:
    with pytest.raises(exc_type) as info:
        fn(*args)
    return str(info.value)


def test_errors_keep_their_messages(lex):
    good = ["Alice", "reads", "the", "books"]
    for bad in (["Alice", "zorbs", "the", "books"],  # missing word
                ["Alice", "reads", "the"] + ["big"] * 9 + ["books"],  # cap
                ["Alice", "the", "reads", "books"]):  # no reduction
        want = raised(NoParse, lexicon_parse, bad, lex)
        for doc in ([bad], [good, bad], [good, bad, good]):
            assert raised(NoParse, parse_text, doc, lex) == want

    n, s = SimpleType("n"), SimpleType("s")
    tokens = [("a", PregroupType([n, n])), ("b", PregroupType([n.r, n.r])),
              ("c", PregroupType([s]))]
    nested = PregroupDiagram(tokens, [(0, 3), (1, 2)])
    crossing = PregroupDiagram(tokens, [(0, 2), (1, 3)])
    want = raised(InvalidDiagram, build_trees, crossing)
    cfg = PipelineConfig(lexicon=lex)
    for sentences in ([crossing], [nested, crossing], [crossing, nested]):
        doc = Document(sentences, CorefMap([]))
        assert raised(InvalidDiagram, treeize, doc, cfg) == want
