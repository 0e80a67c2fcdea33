import json

import pytest

from discocirc.errors import FormatError
from discocirc.grammar import validate_diagram
from discocirc.ingest import Lexicon, load_document, parse_text, read_json
from discocirc.pipeline import PipelineConfig, run
from discocirc.rewrite import (RULES, RewriteRule, builtin_rule,
                               coordination_rewrite, load_rule, rewrite_tree)
from discocirc.trees import PregroupTreeNode, build_trees
from util import free_types, parse_type

FIXTURES = "tests/fixtures"

N_TYPE = parse_type("n")


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def chain(words, ty=N_TYPE):
    """A single-branch tree word_0 -> word_1 -> ... with one out type."""
    node = PregroupTreeNode(words[-1], len(words) - 1, ty)
    for i in range(len(words) - 2, -1, -1):
        node = PregroupTreeNode(words[i], i, ty, (node,))
    return node


def test_determiner_rule_drops_article():
    report = rewrite_tree(chain(["the", "bike"]), builtin_rule("determiner"))
    assert report.merges == 1
    assert report.tree.word == "bike"
    assert report.tree.token_index == 1
    assert not report.tree.children


def test_rule_leaves_non_matching_words_alone():
    tree = chain(["blue", "bike"])
    report = rewrite_tree(tree, builtin_rule("determiner"))
    assert report.merges == 0
    assert report.tree is tree  # a rule that fires nowhere copies nothing


def test_word_merger_merge():
    report = rewrite_tree(chain(["blue", "bike"]),
                          builtin_rule("noun_modification"))
    assert report.tree.word == "blue bike"
    assert report.tree.token_index == 1


def test_word_merger_first():
    rule = RewriteRule("keep_head", None, frozenset({N_TYPE}),
                       word_merger="first")
    report = rewrite_tree(chain(["blue", "bike"]), rule)
    assert report.tree.word == "blue"


def test_max_depth_limits_chain():
    # three stacked modifiers: depth-2 rule merges only two per chain
    tree = chain(["big", "blue", "fast", "bike"])
    report = rewrite_tree(tree, builtin_rule("noun_modification"))
    assert report.merges == 2
    assert report.tree.word == "big"
    assert report.tree.children[0].word == "blue fast bike"


def test_original_tree_untouched():
    tree = chain(["the", "bike"])
    rewrite_tree(tree, builtin_rule("determiner"))
    assert tree.word == "the" and tree.children[0].word == "bike"


def test_rewrite_shares_every_subtree_off_the_merged_path():
    # "Alice bought a blue bike": only the article merges with its child
    doc = load_document(read_json(f"{FIXTURES}/bike_rewrites.json"))
    [root] = build_trees(doc.sentences[0]).forest
    report = rewrite_tree(root, builtin_rule("determiner"))
    assert report.merges == 1
    alice, article = root.children
    [old_blue] = article.children
    new_alice, blue = report.tree.children
    assert (article.word, blue.word, blue.token_index) == ("a", "blue", 3)
    assert new_alice is alice
    assert blue.children[0] is old_blue.children[0]  # the bike leaf


def test_bad_rule_configs():
    with pytest.raises(ValueError):
        RewriteRule("r", None, frozenset())
    with pytest.raises(ValueError):
        RewriteRule("r", None, frozenset({N_TYPE}), word_merger="random")
    with pytest.raises(ValueError):
        RewriteRule("r", None, frozenset({N_TYPE}), max_depth=0)


def test_builtin_rules_cover_spec_set():
    assert set(RULES) == {"determiner", "auxiliary", "noun_modification"}
    assert all(builtin_rule(name).name == name for name in RULES)
    with pytest.raises(KeyError):
        builtin_rule("nope")


def test_load_rule_round_trip(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({
        "name": "custom",
        "match_words": ["very"],
        "match_types": [[["n", 0]]],
        "word_merger": "merge",
        "max_depth": 3,
    }), encoding="utf-8")
    rule = load_rule(path)
    assert rule.name == "custom"
    assert rule.match_words == frozenset({"very"})
    assert rule.max_depth == 3


def test_load_rule_rejects_garbage(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"name": "x"}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_rule(path)


@pytest.mark.parametrize("field, value, message", [
    ("match_words", "an", "match_words must be null or a list of strings"),
    ("match_words", [1, 2], "match_words must be null or a list of strings"),
    ("match_words", {"an": 1}, "match_words must be null or a list of "
                               "strings"),
    ("name", 7, "name must be a string"),
    ("max_depth", 2.7, "max_depth must be an integer"),
    ("max_depth", "2", "max_depth must be an integer"),
    ("max_depth", True, "max_depth must be an integer"),
])
def test_load_rule_rejects_mistyped_fields(tmp_path, field, value, message):
    """A string of match_words is not read as the set of its letters, nor
    a fractional max_depth rounded down."""
    rule = {"name": "det", "match_words": ["an"],
            "match_types": [[["n", 0]]], field: value}
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule), encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_rule(path)
    assert str(info.value) == f"bad rule file: {message} (at {path})"


def test_rewrites_on_parsed_sentence(lex):
    doc = load_document(read_json(f"{FIXTURES}/bike_rewrites.json"))
    [root] = build_trees(doc.sentences[0]).forest
    after_det = rewrite_tree(root, builtin_rule("determiner")).tree
    words = [n.word for n in after_det.walk()]
    assert "a" not in words
    after_mod = rewrite_tree(after_det,
                             builtin_rule("noun_modification")).tree
    words = [n.word for n in after_mod.walk()]
    assert "blue bike" in words


def test_coordination_splits_shared_subject(lex):
    doc = load_document(read_json(f"{FIXTURES}/music_piano.json"))
    parts, coref = coordination_rewrite(doc.sentences[0], doc.corefs, 0)
    assert len(parts) == 2
    assert parts[0].words == ("Alice", "loves", "music")
    assert parts[1].words == ("Alice", "plays", "piano")
    for part in parts:
        validate_diagram(part)
        assert str(free_types(part)) == "s"
    # the subject copy shares a chain with the original
    assert [(0, 0), (1, 0)] in coref.chains


def test_coordination_renumbers_later_sentences(lex):
    doc = load_document(read_json(f"{FIXTURES}/music_piano.json"))
    coref = doc.corefs
    coref.chains.append([(1, 0)])  # pretend there is a later sentence
    _, new_coref = coordination_rewrite(doc.sentences[0], coref, 0)
    assert [(2, 0)] in new_coref.chains


# "the man loves music and plays piano": the subject noun phrase is a
# determiner over its noun
THE_MAN = {"sentences": [{
    "tokens": ["the", "man", "loves", "music", "and", "plays", "piano"],
    "types": [[["n", 0], ["n", -1]], [["n", 0]],
              [["n", 1], ["s", 0], ["n", -1]], [["n", 0]],
              [["s", 1], ["s", 0], ["s", -1]],
              [["n", 1], ["s", 0], ["n", -1]], [["n", 0]]],
    "cups": [[1, 2], [0, 3], [5, 6], [4, 7], [9, 11], [12, 13]]}]}


def test_coordination_leaves_a_phrase_subject_unsplit(lex):
    """The subject wire belongs to "the", whose type ``n@n.l`` is no single
    type to fill the right phrase's ``n.r`` slot; copying it would leave
    "the plays piano" with the man's wire never reaching "plays"."""
    doc = load_document(THE_MAN)
    parts, coref = coordination_rewrite(doc.sentences[0], doc.corefs, 0)
    assert parts == [doc.sentences[0]]
    assert coref is doc.corefs
    coordinated = run(THE_MAN, PipelineConfig(lexicon=lex,
                                              coordination=True), "diagram")
    assert coordinated == run(THE_MAN, PipelineConfig(lexicon=lex),
                              "diagram")


def test_sentence_without_conjunction_passes_through(lex):
    doc = load_document(read_json(f"{FIXTURES}/reading.json"))
    parts, coref = coordination_rewrite(doc.sentences[0], doc.corefs, 0)
    assert parts == [doc.sentences[0]]
    assert coref is doc.corefs
