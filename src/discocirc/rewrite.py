"""Semantic rewrites: tree branch contraction and coordination splitting.

Rewrite rules contract a node with its single same-typed child when the
node's word and type match the rule, cutting circuit depth without
touching noun wires.  The coordination rewrite splits a shared-subject
conjunction into one diagram per coordinated phrase, duplicating the
subject and linking the copies through the coreference map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import FormatError
from .grammar import (N, S, PregroupDiagram, PregroupType, SimpleType, Ty,
                      can_contract)
from .ingest import CorefMap, Mention, read_json
from .trees import (TREE_MEMO_SIZE, PregroupTreeNode, TreeBuildReport,
                    _spell)

WORD_MERGERS = ("merge", "first", "last")


@dataclass(frozen=True)
class RewriteRule:
    """A (word, type) driven branch contraction.

    ``match_words`` of None is a wildcard; ``word_merger`` picks the
    surviving word: 'merge' joins both with a space, 'first' keeps the
    parent's, 'last' the child's.
    """

    name: str
    match_words: frozenset[str] | None
    match_types: frozenset[PregroupType]
    word_merger: str = "last"
    max_depth: int = 1

    def __post_init__(self):
        if not self.match_types:
            raise ValueError(f"rule {self.name!r} has no match_types")
        if self.word_merger not in WORD_MERGERS:
            raise ValueError(f"unknown word_merger {self.word_merger!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def matches_word(self, word: str) -> bool:
        return self.match_words is None or word in self.match_words


@dataclass
class RewriteReport:
    tree: PregroupTreeNode
    merges: int


def rewrite_tree(root: PregroupTreeNode, rule: RewriteRule) -> RewriteReport:
    """Apply one rule bottom-up.  Nodes are immutable, so the result
    shares every subtree in which the rule fired nowhere with ``root``;
    when it fires nowhere at all, the result is ``root`` itself.

    A node is contracted with its single child when the node matches the
    rule's type and words, the child carries the same output type, and
    fewer than ``max_depth`` merges happened along this contraction chain.
    The surviving node keeps the child's token index so coreference
    indices stay valid.
    """
    return _rewrite(root, rule, rule.matches_word, "{} {}".format)


def _rewrite(root, rule, matches, join) -> RewriteReport:
    """``rewrite_tree`` with the word test ``matches`` and the merged word
    ``join(parent word, child word)``."""
    total = 0

    def visit(node: PregroupTreeNode) -> tuple[PregroupTreeNode, int]:
        nonlocal total
        new_children = []
        changed = False
        chain_merges = 0
        for child in node.children:
            new_child, merges = visit(child)
            if new_child is not child:
                changed = True
            new_children.append(new_child)
            chain_merges = merges  # only a single child can chain upward
        if changed:
            node = PregroupTreeNode(node.word, node.token_index,
                                    node.out_type, tuple(new_children))
        if (len(node.children) == 1
                and node.out_type in rule.match_types
                and node.children[0].out_type == node.out_type
                and matches(node.word)
                and chain_merges < rule.max_depth):
            child = node.children[0]
            if rule.word_merger == "merge":
                word = join(node.word, child.word)
            elif rule.word_merger == "first":
                word = node.word
            else:
                word = child.word
            merged = PregroupTreeNode(
                word, child.token_index, node.out_type, child.children)
            total += 1
            return merged, chain_merges + 1
        return node, 0

    tree, _ = visit(root)
    return RewriteReport(tree, total)


def _spaced(rule: RewriteRule) -> bool:
    """Whether a word of the rule holds a space, as every merged name does."""
    return any(" " in word for word in rule.match_words)


def _token_matches(tokens: frozenset, name: tuple) -> bool:
    return len(name) == 1 and name[0] in tokens


def _spelled_matches(match_words, words, name: tuple) -> bool:
    return _spell(name, words) in match_words


class _Rules(tuple):
    """Rules as a memo key that each sentence looks up: hashed once."""

    def __init__(self, rules):
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=TREE_MEMO_SIZE)
def _rewrite_shape(shape: TreeBuildReport, rules: tuple,
                   keys: tuple) -> TreeBuildReport:
    """The word-free report ``shape`` rewritten by ``rules`` in turn.
    ``keys`` holds, for each rule with ``match_words``, the sentence's
    words if the rule is ``_spaced``, else the tokens whose word it
    matches.  Kept once per process for each (shape, rules, keys), the
    last ``TREE_MEMO_SIZE`` used."""
    forest = shape.forest
    keys = iter(keys)
    for rule in rules:
        if rule.match_words is None:
            matches = rule.matches_word
        elif _spaced(rule):
            matches = partial(_spelled_matches, rule.match_words, next(keys))
        else:
            matches = partial(_token_matches, frozenset(next(keys)))
        forest = tuple(_rewrite(root, rule, matches, tuple.__add__).tree
                       for root in forest)
    return TreeBuildReport(forest, shape.removed_cups)


# the stock rules by name: determiner removal, auxiliary removal and
# noun-modifier merging
RULES = {rule.name: rule for rule in (
    RewriteRule(
        name="determiner",
        match_words=frozenset({"a", "an", "the"}),
        match_types=frozenset({Ty(N)}),
        word_merger="last",
        max_depth=1,
    ),
    RewriteRule(
        name="auxiliary",
        match_words=frozenset({"has", "does", "is", "was", "had", "will"}),
        match_types=frozenset({Ty(S)}),
        word_merger="last",
        max_depth=1,
    ),
    RewriteRule(
        name="noun_modification",
        match_words=None,
        match_types=frozenset({Ty(N)}),
        word_merger="merge",
        max_depth=2,
    ),
)}


def builtin_rule(name: str) -> RewriteRule:
    try:
        return RULES[name]
    except KeyError:
        raise KeyError(f"no builtin rule named {name!r}") from None


def load_rule(path) -> RewriteRule:
    """Load a rule from a JSON file
    {name, match_words, match_types, word_merger, max_depth}."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise FormatError("a rule file holds one JSON object", str(path))
    try:
        words = data.get("match_words")
        types = frozenset(
            PregroupType(SimpleType(b, int(z)) for b, z in ty)
            for ty in data["match_types"])
        name, depth = data["name"], data.get("max_depth", 1)
        if not isinstance(name, str):
            raise TypeError("name must be a string")
        # a string would be read as the set of its letters
        if words is not None and not (
                isinstance(words, list)
                and all(isinstance(w, str) for w in words)):
            raise TypeError("match_words must be null or a list of strings")
        if type(depth) is not int:
            raise TypeError("max_depth must be an integer")
        return RewriteRule(
            name=name,
            match_words=None if words is None else frozenset(words),
            match_types=types,
            word_merger=data.get("word_merger", "last"),
            max_depth=depth,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad rule file: {exc}", str(path)) from None


def _is_conjunction(ty: PregroupType) -> bool:
    if len(ty) != 3:
        return False
    a, b, c = ty
    return (a.base == b.base == c.base and b.z == 0
            and a.z == 1 and c.z == -1)


def coordination_rewrite(
        d: PregroupDiagram, coref: CorefMap, sentence_index: int = 0,
) -> tuple[list[PregroupDiagram], CorefMap]:
    """Split a shared-subject binary conjunction into two diagrams.

    The subject of the left phrase is copied in front of the right phrase
    and both copies are linked through the returned coreference map, so
    document composition later identifies their wires.  The subject token
    must be of one simple type that contracts with the right phrase's
    missing subject slot: a subject phrase such as "the man" is declined,
    since copying its determiner would cut the noun off the second verb.
    Sentences without a matching conjunction, or with a declined subject,
    come back unchanged as a singleton list; the coreference map is
    renumbered for the extra sentence on a split.
    """
    conjs = [ti for ti, (_, ty) in enumerate(d.tokens) if _is_conjunction(ty)]
    if len(conjs) != 1:
        return [d], coref
    ci = conjs[0]
    left_tokens = d.tokens[:ci]
    right_tokens = d.tokens[ci + 1:]
    if not left_tokens or not right_tokens:
        return [d], coref

    owner = d.wire_owners
    wire_types = d.wire_types
    n_left_wires = owner.index(ci)
    right_start = n_left_wires + len(d.tokens[ci][1])

    left_cups, right_cups = [], []
    for i, j in d.cups:
        if j < n_left_wires:
            left_cups.append((i, j))
        elif i >= right_start:
            right_cups.append((i - right_start, j - right_start))
        elif owner[i] == ci or owner[j] == ci:
            continue  # the conjunction's own hooks
        else:
            return [d], coref  # a cup straddles the conjunction: no match

    # the shared subject: leftmost noun wire contracted into a right
    # adjoint within the left phrase
    subject = None
    for i, j in sorted(left_cups):
        if wire_types[i].z == 0 and wire_types[j].z == 1:
            subject = owner[i]
            break
    if subject is None:
        return [d], coref
    subj_word, subj_ty = d.tokens[subject]

    # the right phrase must expose exactly one dangling right adjoint
    # (the missing subject slot) besides its own output
    cupped = {w for cup in right_cups for w in cup}
    dangling = [w for w in range(right_start, len(wire_types))
                if (w - right_start) not in cupped
                and wire_types[w].z == 1]
    if len(dangling) != 1 or len(subj_ty) != 1 \
            or not can_contract(subj_ty[0], wire_types[dangling[0]]):
        return [d], coref
    slot = dangling[0] - right_start

    first = PregroupDiagram(left_tokens, left_cups)
    # the copy's one wire fills the slot
    second = PregroupDiagram(
        [(subj_word, subj_ty)] + list(right_tokens),
        [(0, slot + 1)] + [(i + 1, j + 1) for i, j in right_cups])

    def remap(m: Mention) -> Mention:
        si, ti = m
        if si < sentence_index:
            return m
        if si > sentence_index:
            return (si + 1, ti)
        if ti < ci:
            return m
        if ti > ci:
            return (si + 1, ti - ci - 1 + 1)  # +1 for the subject copy
        raise FormatError(
            f"coreference mention on conjunction token {m}")

    chains = [[remap(m) for m in chain] for chain in coref.chains]
    copy_mention = (sentence_index + 1, 0)
    original = (sentence_index, subject)
    for chain in chains:
        if original in chain:
            chain.append(copy_mention)
            break
    else:
        chains.append([original, copy_mention])
    return [first, second], CorefMap(chains)
