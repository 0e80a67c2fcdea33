import json
import random
from importlib import resources

import pytest

from discocirc.errors import FormatError, InvalidDiagram, NoParse
from discocirc.grammar import PregroupDiagram
from discocirc.ingest import (CorefMap, Document, Lexicon, document_to_json,
                              lexicon_parse, load_document, parse_text,
                              read_json, resolve_pronouns)
from util import resolve_pronouns_oracle

FIXTURES = "tests/fixtures"


@pytest.fixture(scope="module")
def lex():
    return Lexicon.builtin()


def test_load_fixture(lex):
    doc = load_document(read_json(f"{FIXTURES}/treasure_hunt.json"))
    assert len(doc.sentences) == 3
    assert doc.sentences[0].words == ("Alice", "found", "a", "map")
    assert any({(0, 0), (1, 0)} <= set(chain)
               for chain in doc.corefs.chains)


def test_round_trip(tmp_path, lex):
    doc = load_document(read_json(f"{FIXTURES}/treasure_hunt.json"))
    out = tmp_path / "doc.json"
    out.write_text(json.dumps(document_to_json(doc), indent=1),
                   encoding="utf-8")
    again = load_document(read_json(out))
    assert document_to_json(again) == document_to_json(doc)


def test_bad_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_json(path)
    assert err.value.location == str(path)


def test_token_type_mismatch():
    data = {"sentences": [{"tokens": ["a", "b"], "types": [[["n", 0]]]}]}
    with pytest.raises(FormatError):
        load_document(data)


def test_invalid_cups_rejected():
    data = {"sentences": [{
        "tokens": ["Alice", "books"],
        "types": [[["n", 0]], [["n", 0]]],
        "cups": [[0, 1]],
    }]}
    with pytest.raises(InvalidDiagram):
        load_document(data)


def test_dangling_mention_rejected():
    data = {
        "sentences": [{"tokens": ["Alice"], "types": [[["n", 0]]]}],
        "corefs": [[[0, 5]]],
    }
    with pytest.raises(FormatError):
        load_document(data)


ALICE_READS = {
    "sentences": [{"tokens": ["Alice", "reads", "books"],
                   "types": [[["n", 0]], [["n", 1], ["s", 0], ["n", -1]],
                             [["n", 0]]],
                   "cups": [[0, 1], [3, 4]]}],
    "corefs": [[[0, 0]], [[0, 2]]]}


@pytest.mark.parametrize("sentence, change, location", [
    (False, {"sentences": 5}, None),
    (True, {"cups": [[0]]}, "sentences[0].cups[0]"),
    (True, {"cups": [["x", 1]]}, "sentences[0].cups[0]"),
    (False, {"corefs": [[["a", 0]]]}, "corefs[0][0]"),
    (False, {"corefs": [[[-1, 0]]]}, "corefs[0]"),
    (True, {"tokens": 5}, "sentences[0]"),
    (False, {"corefs": 5}, "corefs"),
], ids=["sentences-not-a-list", "short-cup", "cup-not-integers",
        "mention-not-integers", "negative-mention", "tokens-not-a-list",
        "corefs-not-a-list"])
def test_malformed_document_is_a_format_error(sentence, change, location):
    assert len(load_document(ALICE_READS).sentences) == 1
    data = json.loads(json.dumps(ALICE_READS))
    (data["sentences"][0] if sentence else data).update(change)
    with pytest.raises(FormatError) as err:
        load_document(data)
    assert err.value.location == location


@pytest.mark.parametrize("raw, location", [
    ({"cat": 5}, "lexicon[cat]"),
    ({"cat": {"is_noun": True}}, "lexicon[cat]"),
    ([["cat", [["n", 0]]]], None),
], ids=["not-a-list-or-object", "no-types", "not-an-object"])
def test_malformed_lexicon_is_a_format_error(raw, location):
    assert Lexicon({"cat": [[["n", 0]]]}).entries["cat"]
    with pytest.raises(FormatError) as err:
        Lexicon(raw)
    assert err.value.location == location


def test_mention_in_two_chains_rejected():
    with pytest.raises(FormatError):
        CorefMap([[(0, 0)], [(0, 0)]])


def test_parser_simple_sentence(lex):
    d = lexicon_parse(["Alice", "reads", "books"], lex)
    assert d.cups == ((0, 1), (3, 4))


def test_parser_is_deterministic(lex):
    first = lexicon_parse(["the", "chef", "cooks", "a", "great", "meal"], lex)
    second = lexicon_parse(["the", "chef", "cooks", "a", "great", "meal"],
                           lex)
    assert first == second


def test_all_parses_contains_first(lex):
    tokens = ["Alice", "has", "a", "bike"]
    first = lexicon_parse(tokens, lex)
    everything = lexicon_parse(tokens, lex, all_parses=True)
    assert first == everything[0]
    assert len(everything) >= 1


def test_unknown_word(lex):
    with pytest.raises(NoParse) as err:
        lexicon_parse(["Alice", "defenestrates", "books"], lex)
    assert "defenestrates" in str(err.value)


def test_token_cap(lex):
    with pytest.raises(NoParse):
        lexicon_parse(["Alice"] * 13, lex)


def test_nonsentence_rejected(lex):
    with pytest.raises(NoParse):
        lexicon_parse(["Alice", "books"], lex)


def test_pronoun_resolution_prefers_nearest_compatible(lex):
    doc = parse_text(
        [["Alice", "found", "a", "map"],
         ["She", "followed", "the", "clues"],
         ["It", "led", "to", "treasure"]], lex)
    chains = doc.corefs.chains
    assert [(0, 0), (1, 0)] in chains        # Alice ... She
    assert [(1, 3), (2, 0)] in chains        # clues ... It
    assert [(0, 3)] in chains                # map stays alone
    assert [(2, 3)] in chains                # treasure stays alone


def test_gender_blocks_bad_antecedent(lex):
    doc = parse_text([["Bob", "reads", "books"], ["He", "sleeps"]], lex)
    assert [(0, 0), (1, 0)] in doc.corefs.chains


def test_unresolved_pronoun_logged(lex, caplog):
    with caplog.at_level("WARNING"):
        doc = parse_text([["She", "sleeps"]], lex)
    assert [(0, 0)] in doc.corefs.chains
    assert any("unresolved" in rec.message for rec in caplog.records)


def test_each_noun_starts_a_chain(lex):
    doc = parse_text([["Bob", "cooks", "dinner"],
                      ["Bob", "saw", "himself"]], lex)
    # the second Bob is a fresh entity; himself binds to it
    assert [(0, 0)] in doc.corefs.chains
    assert [(1, 0), (1, 2)] in doc.corefs.chains


def test_lexicon_rejects_features_that_are_not_strings():
    for feats in (["f"], {"gender": ["f"]}, {"number": {"sg": 1}}):
        with pytest.raises(FormatError):
            Lexicon({"x": {"types": [[["n", 0]]], "is_noun": True,
                           "features": feats}})


def test_lexicon_load_rejects_empty_type(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"x": {"types": [[]]}}), encoding="utf-8")
    with pytest.raises(FormatError):
        Lexicon.load(path)


# a noun with only a number, a noun with no features, one whose gender
# is empty, a pronoun with no features, and a gender the builtin lexicon
# lacks on both a noun and a pronoun
CUSTOM_WORDS = {
    "crowd": {"types": [[["n", 0]]], "is_noun": True,
              "features": {"number": "pl"}},
    "thing": {"types": [[["n", 0]]], "is_noun": True},
    "blob": {"types": [[["n", 0]]], "is_noun": True,
             "features": {"gender": "", "number": "sg"}},
    "one": {"types": [[["n", 0]]], "is_pronoun": True},
    "ship": {"types": [[["n", 0]]], "is_noun": True,
             "features": {"gender": "c", "number": "sg"}},
    "hen": {"types": [[["n", 0]]], "is_pronoun": True,
            "features": {"gender": "c"}},
}


@pytest.fixture(scope="module")
def custom_lex():
    raw = json.loads(resources.files("discocirc.data")
                     .joinpath("lexicon.json").read_text(encoding="utf-8"))
    raw.update(CUSTOM_WORDS)
    return Lexicon(raw)


def test_resolver_matches_back_scan_oracle(custom_lex):
    rng = random.Random(11)
    nouns, pronouns = sorted(custom_lex.nouns), sorted(custom_lex.pronouns)
    custom = sorted(CUSTOM_WORDS)
    n_type = custom_lex.entries["thing"][0]
    antecedents, bound = set(), set()
    for _ in range(2000):
        sentences = []
        for _ in range(rng.randint(1, 8)):
            words = [rng.choice(custom) if rng.random() < 0.2
                     else rng.choice(pronouns if rng.random() < 0.4
                                     else nouns)
                     for _ in range(rng.randint(1, 5))]
            sentences.append(PregroupDiagram([(w, n_type) for w in words]))
        doc = Document(sentences, CorefMap([]))
        want = resolve_pronouns_oracle(doc, custom_lex)
        assert resolve_pronouns(doc, custom_lex).chains == want.chains
        for chain in want.chains:
            if len(chain) > 1:
                words = [doc.sentences[si].tokens[ti][0] for si, ti in chain]
                antecedents.add(words[0])
                bound.update(words[1:])
    # every custom case was an antecedent or a bound pronoun at least once
    assert {"crowd", "thing", "blob", "ship"} <= antecedents
    assert {"one", "hen"} <= bound


def test_featureless_noun_binds_any_pronoun(custom_lex):
    # a decision, not a fix: an absent feature is a wildcard, so "She"
    # takes the nearer featureless "thing" rather than Alice
    doc = parse_text([["Alice", "reads", "the", "story"],
                      ["Bob", "found", "a", "thing"],
                      ["She", "sleeps"]], custom_lex)
    assert [(1, 3), (2, 0)] in doc.corefs.chains
    assert [(0, 0)] in doc.corefs.chains
