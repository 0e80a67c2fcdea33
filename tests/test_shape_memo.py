"""Oracle tests for parsing, building, rewriting and lowering trees once
per sentence shape.

``lexicon_parse`` memoises, for the whole process, the winning
``(types, cups)`` of each sequence of lexicon entries; ``build_trees``
the word-free forest of each ``(types, cups)``; ``treeize`` that forest
rewritten, per rule set and tokens each rule's words match; and
``diagrams`` its lowering, per noun and removed tokens.  The oracles go
through none of the memos: the first solution of
``lexicon_parse(..., all_parses=True)``, which always searches, the raw
builder ``trees._build``, called on the sentence's own diagram, and
``rewrite_tree``, ``sentence_diagram`` and ``compose_document`` (through
``util.compose_spelled``) on the forests it builds.
"""

import json
import logging
import random
from pathlib import Path

import pytest

from discocirc import frames, ingest, rewrite, sandwich, trees
from discocirc.ansatz import AnsatzConfig, circuit_to_json
from discocirc.compose import text_diagram_to_json
from discocirc.errors import DiscocircError, InvalidDiagram, NoParse
from discocirc.grammar import PregroupDiagram, PregroupType, SimpleType
from discocirc.ingest import (CorefMap, Document, Lexicon, lexicon_parse,
                              load_document, parse_text, read_json,
                              resolve_pronouns)
from discocirc.frames import Box, sentence_diagram
from discocirc.pipeline import (PipelineConfig, apply_coordination, circuit,
                                diagrams, ingest as ingest_source,
                                removed_mentions, resolve_rewrites, treeize)
from discocirc.rewrite import builtin_rule, load_rule, rewrite_tree
from discocirc.sandwich import SandwichConfig
from discocirc.trees import PregroupTreeNode, build_trees, forest_to_json
from test_snapshots import CONFIGS, STORY_SEEDS, pronoun_story
from util import (chain_document, compose_spelled, entity_document,
                  parse_type, random_loopy_diagram, topic_dataset)

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENTS = ["bike_pruning", "bike_rewrites", "corpus", "hard_reading",
             "music_piano", "reading", "treasure_hunt"]
RULE_SETS = [(), ("determiner", "noun_modification")]


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


MEMOS = ((ingest._first_parse, ingest.PARSE_MEMO_SIZE),
         (trees._shape_trees, trees.TREE_MEMO_SIZE),
         (rewrite._rewrite_shape, trees.TREE_MEMO_SIZE),
         (frames._lower_shape, trees.TREE_MEMO_SIZE),
         (sandwich._template, trees.TREE_MEMO_SIZE))


def clear_memos():
    for memo, _ in MEMOS:
        memo.cache_clear()


def oracle_parse(tokens, lex) -> PregroupDiagram:
    return lexicon_parse(tokens, lex, all_parses=True)[0]


def parses(tokens, lex) -> bool:
    try:
        oracle_parse(tokens, lex)
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
    entity documents, documents drawn from a pool of those sentences
    with words swapped for others of the same lexicon entries, and four
    two-sentence documents."""
    docs = []
    for name in DOCUMENTS:
        doc = load_document(read_json(FIXTURES / f"{name}.json"))
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
    # both sides of each short-cut of compose_document: only new chains,
    # each mentioned once; a new chain mentioned twice; an old chain
    # already at the tail of the wire order, and one that is not
    docs += [[["Alice", "reads", "books"], ["Bob", "loves", "music"]],
             [["Alice", "reads", "herself"], ["Bob", "reads", "books"]],
             [["Alice", "runs"], ["She", "reads", "music"]],
             [["Alice", "reads", "books"], ["She", "reads", "music"]]]
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
        doc = load_document(read_json(FIXTURES / f"{name}.json"))
        docs.append(doc)
        docs.append(apply_coordination(
            doc, PipelineConfig(lexicon=lex, coordination=True)))
    docs += [parse_text(tokens, lex) for tokens in token_documents(lex)]
    return docs + loopy_documents()


def per_sentence_trees(doc, rules):
    out = []
    for d in doc.sentences:
        report = trees._build(d)
        forest = report.forest
        for rule in rules:
            forest = [rewrite_tree(root, rule).tree for root in forest]
        out.append((forest_to_json(forest), report.removed_cups))
    return out


def test_parse_text_equals_per_sentence_parse(lex):
    shared = 0
    for tokens in token_documents(lex):
        want = [oracle_parse(sentence, lex) for sentence in tokens]
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


def test_one_search_and_one_build_per_distinct_key(lex):
    """Across every document of the process, the raw search runs once per
    distinct entry sequence and the raw build once per distinct shape; a
    second pass over the same documents runs neither."""
    token_docs = token_documents(lex)
    loopy = loopy_documents()
    entry_keys = {entry_key(s, lex) for tokens in token_docs for s in tokens}
    assert len(entry_keys) < ingest.PARSE_MEMO_SIZE
    cfg = PipelineConfig(lexicon=lex)
    clear_memos()
    for _ in range(2):
        docs = [parse_text(tokens, lex) for tokens in token_docs] + loopy
        for doc in docs:
            treeize(doc, cfg)
        shapes = {shape_key(d) for doc in docs for d in doc.sentences}
        assert len(shapes) < trees.TREE_MEMO_SIZE
        assert ingest._first_parse.cache_info().misses == len(entry_keys)
        assert trees._shape_trees.cache_info().misses == len(shapes)


def test_memos_are_bounded():
    for memo, bound in MEMOS:
        assert 0 < bound < float("inf")
        assert memo.cache_info().maxsize == bound


def pipeline_cases() -> list[tuple]:
    """(source, rewrite names, kind, sandwich mode) over the fixtures and
    the snapshot stories."""
    cases = []
    for name in DOCUMENTS:
        for rules in RULE_SETS + [("coordination",)]:
            cases.append((read_json(FIXTURES / f"{name}.json"), rules, "sim4",
                          "shared"))
    for seed in STORY_SEEDS:
        for kind, mode in CONFIGS:
            cases.append(({"tokens": pronoun_story(seed)}, (), kind, mode))
    return cases


def pipeline_outputs(case, lex) -> str:
    source, rules, kind, mode = case
    cfg = PipelineConfig(lexicon=lex, sandwich=SandwichConfig(mode),
                         ansatz=AnsatzConfig(kind, seed=0), max_qubits=64)
    resolve_rewrites(list(rules), cfg)
    doc = apply_coordination(ingest_source(source, lex), cfg)
    reports = treeize(doc, cfg)
    td = diagrams(doc, reports, cfg)
    return json.dumps({
        "parse": [[d.tokens, d.cups] for d in doc.sentences],
        "trees": [(forest_to_json(r.forest), r.removed_cups)
                  for r in reports],
        "diagram": text_diagram_to_json(td),
        "circuit": circuit_to_json(circuit(td, cfg)),
    }, default=str)


def test_cold_and_warm_memos_give_equal_outputs(lex):
    cases = pipeline_cases()
    clear_memos()
    cold = [pipeline_outputs(case, lex) for case in cases]
    warm = [pipeline_outputs(case, lex) for case in cases]
    clear_memos()
    reverse = [pipeline_outputs(case, lex) for case in reversed(cases)]
    assert warm == cold
    assert reverse[::-1] == cold
    assert trees._shape_trees.cache_info().hits > 0


def test_mutating_a_returned_diagram_leaves_later_parses(lex):
    tokens = ["Alice", "reads", "the", "books"]
    want = oracle_parse(tokens, lex)
    for _ in range(3):
        d = lexicon_parse(tokens, lex)
        assert d == want
        assert d.free_wires == want.free_wires
        for name in ("tokens", "cups", "wire_types", "wire_owners",
                     "free_wires"):
            object.__setattr__(d, name, ())
    other = ["Bob", "loves", "the", "music"]
    assert entry_key(other, lex) == entry_key(tokens, lex)
    got, want = lexicon_parse(other, lex), oracle_parse(other, lex)
    assert got == want
    assert (got.wire_types, got.wire_owners, got.free_wires) == \
        (want.wire_types, want.wire_owners, want.free_wires)


def test_a_warm_memo_builds_only_the_sentence_and_no_wire_layout(
        lex, monkeypatch):
    """A hit in both memos builds one diagram, the sentence's own with its
    words, and computes none of its wire layout."""
    build_trees(lexicon_parse(["Alice", "reads", "the", "books"], lex))
    tokens = ["Bob", "loves", "the", "music"]
    want = build_trees(oracle_parse(tokens, lex))
    built = []
    init, normal = PregroupDiagram.__init__, PregroupDiagram._normal

    def record(self, *args):
        init(self, *args)
        built.append(self)

    def record_normal(cls, *args):
        built.append(normal(*args))
        return built[-1]

    # both constructors: the normalising one and a parse hit's
    monkeypatch.setattr(PregroupDiagram, "__init__", record)
    monkeypatch.setattr(PregroupDiagram, "_normal", classmethod(record_normal))
    misses = (ingest._first_parse.cache_info().misses,
              trees._shape_trees.cache_info().misses)
    d = lexicon_parse(tokens, lex)
    report = build_trees(d)
    assert misses == (ingest._first_parse.cache_info().misses,
                      trees._shape_trees.cache_info().misses)
    assert len(built) == 1 and built[0] is d
    assert d.words == tuple(tokens)
    assert set(vars(d)) == {"tokens", "cups"}
    assert forest_to_json(report.forest) == forest_to_json(want.forest)


def test_a_warm_diagram_equals_a_cold_one(lex, monkeypatch):
    """A parse hit, on the sentence's own words or on others of the same
    entries, gives the diagram that the normalising constructor builds:
    equal, of equal hash, its cups normalised and sorted.  So it does
    when the search yields each parse's cups reversed and back to
    front."""
    search = ingest._parses

    def scrambled(entries):
        for types, cups in search(entries):
            yield types, tuple((j, i) for i, j in reversed(cups))

    pairs = [(["Alice", "reads", "the", "books"],
              ["Bob", "loves", "the", "music"]),
             (["Alice", "reads", "herself"], ["Bob", "reads", "herself"]),
             (["She", "reads", "music"], ["She", "loves", "books"])]
    for parses in (search, scrambled):
        monkeypatch.setattr(ingest, "_parses", parses)
        ingest._first_parse.cache_clear()
        for tokens, other in pairs:
            assert entry_key(tokens, lex) == entry_key(other, lex)
            _, found = next(parses(tuple(
                tuple(lex.entries[w]) for w in tokens)))
            assert len(found) >= 2
            for words in (tokens, tokens, other):  # a miss, then two hits
                got, want = lexicon_parse(words, lex), oracle_parse(words, lex)
                assert got == want and hash(got) == hash(want)
                assert got.cups == want.cups == \
                    tuple(sorted((min(c), max(c)) for c in found))
    ingest._first_parse.cache_clear()


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
        want = per_sentence_trees(doc, cfg.rewrites)
        for i in range(len(doc.sentences)):
            reports = treeize(doc, cfg)
            before = [(forest_to_json(r.forest), list(r.removed_cups))
                      for r in reports]
            assert before == want
            for node in [n for root in reports[i].forest
                         for n in root.walk()]:
                with pytest.raises(AttributeError):
                    node.word = "changed"
                with pytest.raises(AttributeError):
                    node.children.append(
                        PregroupTreeNode("x", 99, node.out_type))
            reports[i].forest.append(PregroupTreeNode("y", 98, PregroupType()))
            reports[i].removed_cups.append((97, 98))
            after = [(forest_to_json(r.forest), list(r.removed_cups))
                     for r in reports]
            assert after[:i] + after[i + 1:] == before[:i] + before[i + 1:]


def test_replaced_entries_give_the_new_parse():
    ty = parse_type
    lex = Lexicon({"a": [[["n", 0]]], "v": [[["n", 1], ["s", 0]]],
                   "b": [[["n", 0]]]})
    tokens = ["a", "v", "b"]
    with pytest.raises(NoParse):
        lexicon_parse(tokens, lex)
    lex.entries["v"] = [ty("n.r@s@n.l")]  # replaced
    assert lexicon_parse(tokens, lex) == oracle_parse(tokens, lex)
    assert lexicon_parse(tokens, lex).cups == ((0, 1), (3, 4))
    lex.entries["v"].append(ty("n.r@s"))  # changed in place
    lex.entries["b"].append(ty("s.r@s"))
    lex.entries["v"].reverse()
    lex.entries["b"].reverse()
    got = lexicon_parse(tokens, lex)
    assert got == oracle_parse(tokens, lex)
    assert [t for _, t in got.tokens] == \
        [ty("n"), ty("n.r@s"), ty("s.r@s")]
    lex.entries["b"] = [ty("s")]
    with pytest.raises(NoParse):
        lexicon_parse(tokens, lex)


def raised(exc_type, fn, *args) -> str:
    with pytest.raises(exc_type) as info:
        fn(*args)
    return str(info.value)


def test_errors_keep_their_messages(lex):
    good = ["Alice", "reads", "the", "books"]
    for bad in (["Alice", "zorbs", "the", "books"],  # missing word
                ["Alice", "reads", "the"] + ["big"] * 9 + ["books"],  # cap
                ["Alice", "the", "reads", "books"],  # no reduction
                ["Bob", "the", "loves", "music"]):  # the same entries
        want = raised(NoParse, lexicon_parse, bad, lex, True)
        for doc in ([bad], [good, bad], [good, bad, good]):
            assert raised(NoParse, parse_text, doc, lex) == want
    # a failing search is not memoised
    stored = ingest._first_parse.cache_info().currsize
    raised(NoParse, lexicon_parse, ["Alice", "the", "reads", "books"], lex)
    assert ingest._first_parse.cache_info().currsize == stored

    n, s = SimpleType("n"), SimpleType("s")
    tokens = [("a", PregroupType([n, n])), ("b", PregroupType([n.r, n.r])),
              ("c", PregroupType([s]))]
    nested = PregroupDiagram(tokens, [(0, 3), (1, 2)])
    crossing = PregroupDiagram(tokens, [(0, 2), (1, 3)])
    want = raised(InvalidDiagram, trees._build, crossing)
    cfg = PipelineConfig(lexicon=lex)
    for sentences in ([crossing], [nested, crossing], [crossing, nested]):
        doc = Document(sentences, CorefMap([]))
        assert raised(InvalidDiagram, treeize, doc, cfg) == want


def test_zero_wire_warning_is_logged_on_cold_and_warm_memos(lex, caplog):
    """A box left with no wires is dropped with one warning naming its
    own words, for every sentence that has one, whether the memos have
    seen the sentence's shape or not."""
    doc = parse_text([["Alice", "reads", "the", "books"], ["Bob", "runs"],
                      ["Bob", "reads", "the", "books"],
                      ["Alice", "loves", "a", "music"],
                      ["Alice", "loves", "music"]], lex)
    cfg = PipelineConfig(lexicon=lex,
                         remove_nouns=["books", "Bob", "music"])
    want = [f"dropping zero-wire box {word!r}"
            for word in ("the", "runs", "the", "reads", "a")]
    clear_memos()
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="discocirc.frames"):
            diagrams(doc, treeize(doc, cfg), cfg)
        assert [r.getMessage() for r in caplog.records] == want


# --- lowering once per shape ----------------------------------------------

def oracle_diagram(doc, cfg) -> dict:
    """``diagrams(doc, treeize(doc, cfg), cfg)`` as JSON, through none of
    the memos: the raw builder, every rule on the words, and one
    ``sentence_diagram`` per sentence."""
    removed = removed_mentions(doc, cfg)
    coref = CorefMap([[m for m in chain if m not in removed]
                      for chain in doc.corefs.chains
                      if any(m not in removed for m in chain)])
    sentences = []
    for si, d in enumerate(doc.sentences):
        forest = trees._build(d).forest
        for rule in cfg.rewrites:
            forest = [rewrite_tree(root, rule).tree for root in forest]
        nouns = frozenset(ti for ti, word in enumerate(d.words)
                          if cfg.lexicon.is_noun(word))
        remove = frozenset(ti for s, ti in removed if s == si)
        sentences.append(sentence_diagram(forest, remove, nouns, si))
    return text_diagram_to_json(compose_spelled(sentences, coref))


def piped_diagram(doc, cfg) -> dict:
    return text_diagram_to_json(diagrams(doc, treeize(doc, cfg), cfg))


def corpus_cases(lex) -> list[tuple]:
    """(document after coordination, config) for every corpus input that
    ingests, under every rule set and noun filter of the corpus."""
    import test_corpus
    cases = []
    for _, _, value in test_corpus.inputs():
        try:
            doc = ingest_source(value, lex)
        except DiscocircError:
            continue
        first_noun = next((w for sent in doc.sentences for w in sent.words
                           if lex.is_noun(w)), None)
        for rules in test_corpus.RULE_SETS:
            for noun_filter in test_corpus.FILTERS:
                cfg = PipelineConfig(lexicon=lex)
                resolve_rewrites(list(rules), cfg)
                cfg.min_noun_frequency = 2 if noun_filter == "min2" else None
                cfg.remove_nouns = [first_noun] \
                    if noun_filter == "remove" and first_noun else []
                try:
                    cases.append((apply_coordination(doc, cfg), cfg))
                except DiscocircError:
                    pass
    return cases


def test_diagrams_equal_the_memo_free_oracle(lex):
    """The corpus inputs, under every rule set and noun filter, with the
    memos cold, warm and filled in reverse order."""
    cases = corpus_cases(lex)
    assert len(cases) > 500
    want = [oracle_diagram(doc, cfg) for doc, cfg in cases]
    clear_memos()
    assert [piped_diagram(doc, cfg) for doc, cfg in cases] == want
    assert [piped_diagram(doc, cfg) for doc, cfg in cases] == want
    clear_memos()
    assert [piped_diagram(doc, cfg) for doc, cfg in reversed(cases)] == \
        want[::-1]
    assert rewrite._rewrite_shape.cache_info().hits > 0
    assert frames._lower_shape.cache_info().hits > 0


def test_edited_noun_tags_give_the_new_diagram():
    lex = Lexicon.builtin()
    doc = parse_text([["Alice", "reads", "the", "books"],
                      ["Bob", "loves", "the", "music"],
                      ["Alice", "loves", "the", "books"]], lex)
    cfg = PipelineConfig(lexicon=lex, rewrites=[builtin_rule("determiner")])
    seen = []
    for edit in (lambda: lex.nouns.discard("books"),
                 lambda: lex.nouns.discard("music"),
                 lambda: lex.nouns.update({"books", "music"}), None):
        got = piped_diagram(doc, cfg)
        assert got == oracle_diagram(doc, cfg)
        seen.append(got)
        if edit:
            edit()
    assert seen[0] != seen[1] != seen[2] != seen[0] == seen[3]


def noun_rule(tmp_path, name, words, merger):
    """The rule on type n of this name, words and merger, read from a
    rule file."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "name": name, "match_words": words, "match_types": [[["n", 0]]],
        "word_merger": merger}), encoding="utf-8")
    return load_rule(path)


def test_a_rule_asked_about_a_merged_word_rewrites_the_sentence_alone(
        lex, tmp_path):
    """Only ``merge`` names a node with several tokens, and such a name
    holds a space; a rule with a word that holds one spells each name
    in the sentence's own words, and its rewrite and lowering are kept
    like any other: a warm second pass adds no entry to either memo."""
    cfg = PipelineConfig(lexicon=lex, rewrites=[
        noun_rule(tmp_path, "pair", None, "merge"),
        noun_rule(tmp_path, "the_large", ["the large"], "first")])
    merged = [["Alice", "reads", "the", "large", "blue", "books"],
              ["Bob", "loves", "a", "fast", "blue", "bike"]]
    doc = parse_text(merged + [["Alice", "reads", "books"]] + merged, lex)
    clear_memos()
    added = []
    for _ in range(2):
        reports = treeize(doc, cfg)
        assert [(forest_to_json(r.forest), r.removed_cups)
                for r in reports] == per_sentence_trees(doc, cfg.rewrites)
        assert piped_diagram(doc, cfg) == oracle_diagram(doc, cfg)
        added.append([(memo.cache_info().misses, memo.cache_info().currsize)
                      for memo in (rewrite._rewrite_shape,
                                   frames._lower_shape)])
    assert added[1] == added[0]
    words = [n["word"] for n in piped_diagram(doc, cfg)["states"]]
    assert "the large" in words and "blue bike" in words
    # without the rule with words, the merged names are lowered once per
    # shape and spelled for each sentence
    cfg.rewrites.pop()
    for _ in range(2):
        got = piped_diagram(doc, cfg)
        assert got == oracle_diagram(doc, cfg)
        assert '"name": "a fast"' in json.dumps(got)


def test_a_warm_sentence_builds_no_tree_node_and_runs_no_rule(
        lex, monkeypatch, tmp_path):
    """Once a sentence's shape, rule matches, nouns and removed tokens
    were lowered, another sentence of the same builds no tree node, runs
    no rule and lowers nothing; its diagram is the oracle's.  So does a
    sentence where a rule with a single word is asked about a merged
    name, which it never matches."""
    stock = PipelineConfig(lexicon=lex, remove_nouns=["music"],
                           rewrites=[builtin_rule("determiner"),
                                     builtin_rule("noun_modification")])
    paired = PipelineConfig(lexicon=lex, rewrites=[
        noun_rule(tmp_path, "pair", None, "merge"),
        noun_rule(tmp_path, "the", ["the"], "first")])
    cases = [
        (stock, [["Alice", "reads", "the", "large", "books"],
                 ["Bob", "loves", "the", "music"]],
         [["Bob", "writes", "the", "good", "code"],
          ["Alice", "likes", "the", "music"]]),
        (paired, [["Alice", "reads", "the", "large", "blue", "books"],
                  ["Bob", "loves", "the", "fast", "new", "bike"]],
         [["Bob", "writes", "the", "good", "fresh", "code"],
          ["Alice", "likes", "the", "tasty", "fresh", "soup"]])]
    cases = [(cfg, parse_text(warm, lex), parse_text(doc, lex))
             for cfg, warm, doc in cases]
    want = [oracle_diagram(doc, cfg) for cfg, _, doc in cases]
    for cfg, warm, _ in cases:
        piped_diagram(warm, cfg)
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(PregroupTreeNode, "__new__",
                        staticmethod(counted(PregroupTreeNode.__new__)))
    monkeypatch.setattr(rewrite, "_rewrite", counted(rewrite._rewrite))
    monkeypatch.setattr(frames, "_lower", counted(frames._lower))
    got = [piped_diagram(doc, cfg) for cfg, _, doc in cases]
    assert calls == []
    assert got == want
    # the single-word rule was asked about the merged name "the good"
    assert '"name": "the good"' in json.dumps(got[1])


def test_mutating_reports_or_a_diagram_leaves_later_diagrams(lex):
    cfg = PipelineConfig(lexicon=lex,
                         rewrites=[builtin_rule("determiner"),
                                   builtin_rule("noun_modification")])
    doc = parse_text(entity_document(random.Random(3), 6)
                     + [["She", "reads", "herself"]], lex)
    want = oracle_diagram(doc, cfg)
    for _ in range(3):
        reports = treeize(doc, cfg)
        td = diagrams(doc, reports, cfg)
        assert text_diagram_to_json(td) == want
        reports[0].forest.append(PregroupTreeNode("y", 98, PregroupType()))
        reports[1].removed_cups.append((97, 98))
        td.layers.append(Box("x", (0,)))
        td.layers[0] = Box("z", (1,))
        td.states.reverse()
