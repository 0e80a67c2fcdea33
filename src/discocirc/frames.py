"""Sentence diagrams: noun states acted on by boxes and nested frames.

A pregroup tree lowers to a body of boxes and frames over noun wires, with
all noun states pulled out to the top of the diagram.  Wires are labelled
by opaque ids (token indices at sentence level, chain ids after document
composition).  Noun filtering happens here too: a removed noun leaf, and
a box left with no wires, lowers to nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .ingest import CorefMap
from .trees import TREE_MEMO_SIZE, PregroupTreeNode, _spell

log = logging.getLogger(__name__)


# --- diagram elements -------------------------------------------------------

class Box(NamedTuple):
    name: str
    wires: tuple
    merge: bool = False  # merge boxes postselect all but their last wire


class Frame(NamedTuple):
    name: str
    wires: tuple
    components: tuple


class Identity(NamedTuple):
    wires: tuple


class Seq(NamedTuple):  # built by nothing; perfbench/workloads.py imports it
    elements: tuple


class Par(NamedTuple):
    """Side-by-side elements covering a full layer."""

    elements: tuple


class Perm(NamedTuple):
    """Reordering of the current wires that names only the wires it moves:
    ``wires`` are taken out of the wire order, and then ``wires[k]`` is put
    back so that it ends up at index ``positions[k]``, the other wires
    keeping their relative order.  A sentence's pair sends its chains to
    the end of the order and back to their introduction positions."""

    wires: tuple
    positions: tuple


class Spider(NamedTuple):
    """Frobenius merge of ``in_wires`` into ``out_wire``; the dagger reads
    the other way round (a copy)."""

    in_wires: tuple
    out_wire: object
    dagger: bool = False


def map_wires(el, fn, words):
    """Relabel every wire id of a word-free sentence body element (Box,
    Frame, Identity or Par) through ``fn``, and spell each name, a tuple
    of token indices, as their ``words`` joined by spaces."""
    kind = type(el)
    if kind is Box or kind is Frame:
        name, wires, last = el
        if kind is Frame:
            last = tuple([map_wires(c, fn, words) for c in last])
        # built directly: a NamedTuple's own __new__ is a Python call
        return tuple.__new__(kind, (_spell(name, words), tuple(map(fn, wires)),
                                    last))
    if kind is Identity:
        return Identity(tuple(map(fn, el.wires)))
    if kind is Par:
        return Par(tuple([map_wires(c, fn, words) for c in el.elements]))
    raise TypeError(f"not a diagram element: {el!r}")


def iter_boxes(el):
    """Yield every Box and Frame in an element, outermost first."""
    if isinstance(el, Par):
        for sub in el.elements:
            yield from iter_boxes(sub)
    elif isinstance(el, Frame):
        yield el
        for sub in el.components:
            yield from iter_boxes(sub)
    elif isinstance(el, Box):
        yield el


# --- sentence diagrams ------------------------------------------------------

class NounState(NamedTuple):
    word: str
    sentence_index: int
    token_index: int
    chain_id: int = -1


@dataclass
class SentenceDiagram:
    nouns: list[NounState]
    body: object  # Box, Frame, Identity or Par


def _lower(node: PregroupTreeNode, remove: frozenset,
           noun_tokens: frozenset, nouns: list, dropped: list):
    """Lower a pregroup tree to (body element or None, its nouns' token
    indices in order), appending its noun leaves to ``nouns`` and the
    words of its boxes left with no wires to ``dropped``.

    A noun leaf lowers to no element: it adds its wire and its noun
    state, or nothing when it is in ``remove``.  A node whose children
    contribute no sub-diagram becomes a box over its nouns' wires,
    otherwise a frame containing the surviving sub-diagrams.
    """
    word, token, _, children = node
    if not children and token in noun_tokens:
        if token in remove:
            return None, ()
        nouns.append(node)
        return None, (token,)

    subdiags, wires = [], []
    for child in children:
        el, below = _lower(child, remove, noun_tokens, nouns, dropped)
        if el is not None:
            subdiags.append(el)
        wires.extend(below)
    wires = tuple(sorted(wires))
    if not subdiags:
        if not wires:
            dropped.append(word)
            return None, ()
        return Box(word, wires), wires
    return Frame(word, wires, tuple(subdiags)), wires


def _lower_forest(forest, remove: frozenset, noun_tokens: frozenset):
    """(noun leaves in token order, body, words of the zero-wire boxes)."""
    bodies, nouns, dropped = [], [], []
    for root in forest:
        el, _ = _lower(root, remove, noun_tokens, nouns, dropped)
        if el is not None:
            bodies.append(el)
    nouns.sort(key=lambda n: n.token_index)
    if not bodies:
        body = Identity(tuple(n.token_index for n in nouns))
    elif len(bodies) == 1:
        body = bodies[0]
    else:
        body = Par(tuple(bodies))
    return tuple(nouns), body, tuple(dropped)


def sentence_diagram(forest: list[PregroupTreeNode],
                     remove: frozenset = frozenset(),
                     noun_tokens: frozenset = frozenset(),
                     sentence_index: int = 0) -> SentenceDiagram:
    """Lower a whole sentence (possibly a forest) to one diagram; a
    sentence whose nouns were all removed has none, and the composer
    skips it."""
    nouns, body, dropped = _lower_forest(forest, remove, noun_tokens)
    for word in dropped:
        log.warning("dropping zero-wire box %r", word)
    return SentenceDiagram([NounState(n.word, sentence_index, n.token_index)
                            for n in nouns], body)


def _lower_sentence(shape, words, noun_tokens: tuple, remove: tuple):
    """(noun leaves, body) of the sentence of ``words`` whose report holds
    the word-free ``shape``, with the names left as token indices for
    ``map_wires`` to spell.  The lowering is kept once per process for
    each (shape, noun tokens, removed tokens), the last
    ``TREE_MEMO_SIZE`` used; each call logs its own zero-wire boxes."""
    nouns, body, dropped = _lower_shape(shape, noun_tokens, remove)
    for name in dropped:
        log.warning("dropping zero-wire box %r", _spell(name, words))
    return nouns, body


@lru_cache(maxsize=TREE_MEMO_SIZE)
def _lower_shape(shape, noun_tokens: tuple, remove: tuple):
    return _lower_forest(shape.forest, frozenset(remove),
                         frozenset(noun_tokens))


def min_frequency_filter(coref: CorefMap, k: int) -> set:
    """Mentions of every chain seen fewer than ``k`` times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = set()
    for chain in coref.chains:
        if len(chain) < k:
            out.update(chain)
    return out


# --- dumps ------------------------------------------------------------------

def dump_element(el, depth: int = 0) -> str:
    pad = "  " * depth
    if isinstance(el, Box):
        tag = "merge-box" if el.merge else "box"
        return f"{pad}{tag} {el.name} {list(el.wires)}"
    if isinstance(el, Frame):
        lines = [f"{pad}frame {el.name} {list(el.wires)}"]
        lines += [dump_element(c, depth + 1) for c in el.components]
        return "\n".join(lines)
    if isinstance(el, Identity):
        return f"{pad}id {list(el.wires)}"
    if isinstance(el, Perm):
        return f"{pad}perm {list(el.wires)} to {list(el.positions)}"
    if isinstance(el, Spider):
        arrow = "copy" if el.dagger else "merge"
        return f"{pad}spider-{arrow} {list(el.in_wires)} ~ {el.out_wire}"
    if isinstance(el, Par):
        lines = [f"{pad}par"]
        lines += [dump_element(c, depth + 1) for c in el.elements]
        return "\n".join(lines)
    raise TypeError(f"not a diagram element: {el!r}")
