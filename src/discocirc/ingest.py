"""Document ingestion: interchange files, mini parser, pronoun resolution.

The interchange JSON file is the primary ingestion path: it carries
pre-parsed pregroup diagrams plus coreference chains.  For self-contained
use a small lexicon-driven parser and a nearest-antecedent pronoun
resolver stand in for an external parser and coreference model.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
from dataclasses import dataclass, field
from importlib import resources

from .errors import FormatError, InvalidDiagram, NoParse
from .grammar import (
    PregroupDiagram,
    PregroupType,
    SimpleType,
    can_contract,
    validate_diagram,
)

log = logging.getLogger(__name__)

PARSER_TOKEN_CAP = 12
PARSE_MEMO_SIZE = 1024  # entry sequences whose winner is kept

Mention = tuple[int, int]


@dataclass
class CorefMap:
    """Disjoint chains of (sentence_index, token_index) mentions."""

    chains: list[list[Mention]] = field(default_factory=list)

    def __post_init__(self):
        mentions = itertools.chain.from_iterable(self.chains)
        if len(set(mentions)) < sum(map(len, self.chains)):
            seen = set()  # name the first repeat
            for m in itertools.chain.from_iterable(self.chains):
                if m in seen:
                    raise FormatError(f"mention {m} appears in two chains")
                seen.add(m)
        self.chains[:] = map(sorted, self.chains)

    def mentions(self) -> set[Mention]:
        return {m for chain in self.chains for m in chain}


@dataclass
class Document:
    sentences: list[PregroupDiagram]
    corefs: CorefMap
    source_text: str | None = None


class Lexicon:
    """Word entries (pregroup types) plus noun/pronoun tags and features."""

    def __init__(self, raw: dict):
        self.entries: dict[str, list[PregroupType]] = {}
        self.features: dict[str, dict] = {}
        self.nouns: set[str] = set()
        self.pronouns: set[str] = set()
        if not isinstance(raw, dict):
            raise FormatError("a lexicon is an object of word entries")
        for word, value in raw.items():
            if isinstance(value, list):
                value = {"types": value}
            if not isinstance(value, dict) \
                    or not isinstance(value.get("types"), (list, tuple)):
                raise FormatError('entry is neither a list of types nor an '
                                  'object with a "types" list',
                                  f"lexicon[{word}]")
            types = [_type_from_json(t, f"lexicon[{word}]")
                     for t in value["types"]]
            if any(len(t) == 0 for t in types):
                raise FormatError(f"empty type for word {word!r}")
            self.entries[word] = types
            feats = value.get("features", {})
            if not isinstance(feats, dict) or not all(
                    isinstance(feats.get(key), (str, type(None)))
                    for key in ("gender", "number")):
                raise FormatError(
                    f"features of {word!r} must map gender and number "
                    "to strings")
            self.features[word] = feats
            if value.get("is_noun"):
                self.nouns.add(word)
            if value.get("is_pronoun"):
                self.pronouns.add(word)

    def is_noun(self, word: str) -> bool:
        return word in self.nouns or word in self.pronouns

    @staticmethod
    def load(path) -> "Lexicon":
        return Lexicon(read_json(path))

    @staticmethod
    def builtin() -> "Lexicon":
        data = resources.files("discocirc.data").joinpath("lexicon.json")
        return Lexicon(json.loads(data.read_text(encoding="utf-8")))


def _type_from_json(pairs, where: str) -> PregroupType:
    try:
        return PregroupType(SimpleType(base, int(z)) for base, z in pairs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad type {pairs!r}: {exc}", where) from None


def _type_to_json(ty: PregroupType) -> list:
    return [[t.base, t.z] for t in ty]


def read_json(path):
    """The JSON value in the file at ``path``; a FormatError naming the
    file when it cannot be read or is not JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise FormatError(f"cannot read: {exc.strerror}", str(path)) from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise FormatError(f"invalid JSON: {exc}", str(path)) from None


def write_text(path, text: str, mode: str = "w") -> None:
    """Write ``text`` to the file at ``path``, or append it with mode
    ``"a"``; a FormatError naming the file when it cannot be written."""
    try:
        with open(path, mode, encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write: {exc.strerror}", str(path)) from None


def load_document(data) -> Document:
    """Load an interchange document from its parsed JSON value."""
    if not isinstance(data, dict) \
            or not isinstance(data.get("sentences"), (list, tuple)):
        raise FormatError("document must be an object with a 'sentences' list")
    sentences = []
    for si, sent in enumerate(data["sentences"]):
        where = f"sentences[{si}]"
        try:
            tokens = sent["tokens"]
            types = sent["types"]
            cups = _index_pairs(sent.get("cups", []), f"{where}.cups")
        except (TypeError, KeyError) as exc:
            raise FormatError(f"missing field {exc}", where) from None
        if not all(isinstance(x, (list, tuple)) for x in (tokens, types)):
            raise FormatError("tokens and types must be lists", where)
        if len(tokens) != len(types):
            raise FormatError(
                f"{len(tokens)} tokens but {len(types)} types", where)
        diagram = PregroupDiagram(
            [(w, _type_from_json(t, f"{where}.types[{i}]"))
             for i, (w, t) in enumerate(zip(tokens, types))],
            cups)
        try:
            validate_diagram(diagram)
        except InvalidDiagram as exc:
            raise InvalidDiagram(f"sentence {si}: {exc}") from None
        sentences.append(diagram)

    corefs = data.get("corefs", [])
    if not isinstance(corefs, (list, tuple)):
        raise FormatError("corefs must be a list of chains", "corefs")
    chains = []
    for ci, chain in enumerate(corefs):
        mentions = _index_pairs(chain, f"corefs[{ci}]")
        for si, ti in mentions:
            if not (0 <= si < len(sentences)
                    and 0 <= ti < len(sentences[si].tokens)):
                raise FormatError(
                    f"mention ({si}, {ti}) points at no token",
                    f"corefs[{ci}]")
        chains.append(mentions)
    return Document(sentences, CorefMap(chains), data.get("text"))


def _index_pairs(items, where: str) -> list[tuple[int, int]]:
    """``items``, a list of [int, int] pairs, as tuples; a FormatError that
    names the item for anything else."""
    if not isinstance(items, (list, tuple)):
        raise FormatError(f"not a list of [int, int] pairs: {items!r}", where)
    for k, item in enumerate(items):
        if not isinstance(item, (list, tuple)) or len(item) != 2 or not all(
                type(x) is int for x in item):
            raise FormatError(f"not a pair of integers: {item!r}",
                              f"{where}[{k}]")
    return [tuple(item) for item in items]


def document_to_json(doc: Document) -> dict:
    """Inverse of load_document; round-trips bit-exactly."""
    data = {
        "sentences": [
            {
                "tokens": list(d.words),
                "types": [_type_to_json(ty) for _, ty in d.tokens],
                "cups": [list(c) for c in d.cups],
            }
            for d in doc.sentences
        ],
        "corefs": [[list(m) for m in chain] for chain in doc.corefs.chains],
    }
    if doc.source_text is not None:
        data["text"] = doc.source_text
    return data


def _matchings(wires, budget):
    """Cup sets over ``wires`` leaving exactly the ``budget`` types free.

    ``wires`` is a list of (offset, SimpleType).  Cups are non-crossing and
    explored shortest-span-first, so the first yielded solution is the
    deterministic winner.
    """
    if not wires:
        if not budget:
            yield []
        return
    off, ty = wires[0]
    for jpos in range(1, len(wires)):
        joff, jty = wires[jpos]
        if not can_contract(ty, jty):
            continue
        for inner in _matchings(wires[1:jpos], []):
            for outer in _matchings(wires[jpos + 1:], budget):
                yield [(off, joff)] + inner + outer
    if budget and ty == budget[0]:
        for rest in _matchings(wires[1:], budget[1:]):
            yield rest


def lexicon_parse(tokens: list[str], lex: Lexicon,
                  all_parses: bool = False):
    """Parse pre-split tokens into a diagram reducing to a sentence.

    Exhaustive over per-token type choices (lexicon order) and non-crossing
    matchings (shortest span first); the first solution wins unless
    ``all_parses`` asks for every one.  The winning ``(types, cups)`` is
    memoised per process by the tokens' lexicon entries at call time (the
    last ``PARSE_MEMO_SIZE`` sequences used) and given each call's words;
    failures and ``all_parses`` are always searched.
    """
    if len(tokens) > PARSER_TOKEN_CAP:
        raise NoParse(
            f"sentence has {len(tokens)} tokens; the mini parser caps at "
            f"{PARSER_TOKEN_CAP}")
    try:
        entries = tuple([tuple(lex.entries[w]) for w in tokens])
    except KeyError:
        missing = [w for w in tokens if w not in lex.entries]
        raise NoParse(f"words not in lexicon: {missing}") from None
    if all_parses:
        solutions = list(dict.fromkeys(
            PregroupDiagram(zip(tokens, types), cups)
            for types, cups in _parses(entries)))
        if solutions:
            return solutions
    else:
        try:
            types, cups = _first_parse(entries)
            return PregroupDiagram._normal(tuple(zip(tokens, types)), cups)
        except StopIteration:  # nothing reduces
            pass
    raise NoParse(f"no type assignment of {tokens} reduces to a sentence")


def _parses(entries):
    """Every (types, cups), one type per token from ``entries``, that
    reduces to a sentence, in search order; both are tuples."""
    target = [SimpleType("s")]
    for assignment in itertools.product(*entries):
        wires = []
        off = 0
        for ty in assignment:
            for t in ty:
                wires.append((off, t))
                off += 1
        for cups in _matchings(wires, target):
            yield assignment, tuple(cups)


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _first_parse(entries):
    types, cups = next(_parses(entries))  # lru_cache stores no StopIteration
    return types, PregroupDiagram((), cups).cups  # as __init__ sorts them


def _feature_class(feats: dict) -> tuple:
    """(gender, number), an absent or empty feature as None."""
    return feats.get("gender") or None, feats.get("number") or None


def _accepts(want, have) -> bool:
    # an absent feature on either side is a wildcard
    return want is None or have is None or want == have


def resolve_pronouns(doc: Document, lex: Lexicon) -> CorefMap:
    """Chain each pronoun to its nearest feature-compatible antecedent.

    Nouns with no pronouns become singleton chains; unresolvable pronouns
    are logged and left as fresh singletons.  Only the latest noun of
    each feature class can be the nearest one, so a pronoun looks at one
    candidate per class.  A noun with no gender or number binds any
    pronoun (a decision recorded in the README).
    """
    chains: list[list[Mention]] = []
    latest: dict[tuple, int] = {}  # feature class -> chain of its last noun
    classes: dict[str, tuple] = {}  # noun -> its feature class
    pronouns, nouns, features = lex.pronouns, lex.nouns, lex.features
    for si, sent in enumerate(doc.sentences):
        for ti, (word, _) in enumerate(sent.tokens):
            if word in pronouns:
                gender, number = _feature_class(features.get(word, {}))
                ci = max((c for (g, n), c in latest.items()
                          if _accepts(gender, g) and _accepts(number, n)),
                         default=None)
                if ci is None:
                    log.warning("unresolved pronoun %r at %s", word, (si, ti))
                    chains.append([(si, ti)])
                else:
                    chains[ci].append((si, ti))
            elif word in nouns:
                if word not in classes:
                    classes[word] = _feature_class(features.get(word, {}))
                latest[classes[word]] = len(chains)
                chains.append([(si, ti)])
    return CorefMap(chains)


def check_tokens(sentences):
    """``sentences``, the raw token input of a JSON document; a
    FormatError naming ``tokens``, ``tokens[i]`` or ``tokens[i][j]``
    unless it is a list of lists of strings."""
    if not isinstance(sentences, list):
        raise FormatError("not a list of sentences", "tokens")
    for i, tokens in enumerate(sentences):
        if not isinstance(tokens, list):
            raise FormatError("not a list of tokens", f"tokens[{i}]")
        for j, word in enumerate(tokens):
            if not isinstance(word, str):
                raise FormatError(f"not a string: {word!r}",
                                  f"tokens[{i}][{j}]")
    return sentences


def parse_text(sentences: list[list[str]], lex: Lexicon,
               text: str | None = None) -> Document:
    """Parse pre-tokenised sentences with ``lexicon_parse`` (whose memo
    spares repeated entry sequences the search) and resolve pronouns."""
    doc = Document([lexicon_parse(tokens, lex) for tokens in sentences],
                   CorefMap([]), text)
    doc.corefs = resolve_pronouns(doc, lex)
    return doc
