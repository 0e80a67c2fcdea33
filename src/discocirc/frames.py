"""Sentence diagrams: noun states acted on by boxes and nested frames.

A pregroup tree lowers to a body of boxes and frames over noun wires, with
all noun states pulled out to the top of the diagram.  Wires are labelled
by opaque ids (token indices at sentence level, chain ids after document
composition).  Noun filtering happens here too: removed noun leaves yield
empty sub-diagrams and boxes left without support are pruned away.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import EmptySentence
from .ingest import CorefMap
from .trees import PregroupTreeNode

log = logging.getLogger(__name__)


# --- diagram elements -------------------------------------------------------

@dataclass(frozen=True)
class Box:
    name: str
    wires: tuple
    merge: bool = False  # merge boxes postselect all but their last wire


@dataclass(frozen=True)
class Frame:
    name: str
    wires: tuple
    components: tuple


@dataclass(frozen=True)
class Identity:
    wires: tuple


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Seq:
    """Sequential composition, first element applied first."""

    elements: tuple


@dataclass(frozen=True)
class Par:
    """Side-by-side elements covering a full layer."""

    elements: tuple


@dataclass(frozen=True)
class Perm:
    """Reordering of the current wires that names only the wires it moves:
    ``wires`` are taken out of the wire order, and then ``wires[k]`` is put
    back so that it ends up at index ``positions[k]``, the other wires
    keeping their relative order.  A sentence's pair sends its chains to
    the end of the order and back to their introduction positions."""

    wires: tuple
    positions: tuple


@dataclass(frozen=True)
class Spider:
    """Frobenius merge of ``in_wires`` into ``out_wire``; the dagger reads
    the other way round (a copy)."""

    in_wires: tuple
    out_wire: object
    dagger: bool = False


def element_wires(el) -> tuple:
    """The wire ids an element touches (domain side)."""
    if isinstance(el, (Box, Frame, Identity, Perm)):
        return el.wires
    if isinstance(el, Spider):
        return (el.out_wire,) if el.dagger else tuple(el.in_wires)
    if isinstance(el, Empty):
        return ()
    if isinstance(el, (Seq, Par)):
        seen = []
        for sub in el.elements:
            for w in element_wires(sub):
                if w not in seen:
                    seen.append(w)
        return tuple(seen)
    raise TypeError(f"not a diagram element: {el!r}")


def map_wires(el, fn):
    """Relabel every wire id of an element through ``fn``."""
    if isinstance(el, Box):
        return Box(el.name, tuple(map(fn, el.wires)), el.merge)
    if isinstance(el, Identity):
        return Identity(tuple(fn(w) for w in el.wires))
    if isinstance(el, Frame):
        return Frame(el.name, tuple(fn(w) for w in el.wires),
                     tuple(map_wires(c, fn) for c in el.components))
    if isinstance(el, Perm):
        return Perm(tuple(fn(w) for w in el.wires), el.positions)
    if isinstance(el, Spider):
        return Spider(tuple(fn(w) for w in el.in_wires), fn(el.out_wire),
                      el.dagger)
    if isinstance(el, Empty):
        return el
    if isinstance(el, Seq):
        return Seq(tuple(map_wires(c, fn) for c in el.elements))
    if isinstance(el, Par):
        return Par(tuple(map_wires(c, fn) for c in el.elements))
    raise TypeError(f"not a diagram element: {el!r}")


def iter_boxes(el):
    """Yield every Box and Frame in an element, outermost first."""
    if isinstance(el, (Seq, Par)):
        for sub in el.elements:
            yield from iter_boxes(sub)
    elif isinstance(el, Frame):
        yield el
        for sub in el.components:
            yield from iter_boxes(sub)
    elif isinstance(el, Box):
        yield el


# --- sentence diagrams ------------------------------------------------------

@dataclass(frozen=True)
class NounState:
    word: str
    sentence_index: int
    token_index: int
    chain_id: int = -1


@dataclass
class SentenceDiagram:
    nouns: list[NounState]
    body: object  # Box, Frame, Identity, Empty, Seq, Par, Perm or Spider


def _is_trivial(el) -> bool:
    return isinstance(el, (Empty, Identity))


def _lower(node: PregroupTreeNode, remove: frozenset,
           noun_tokens: frozenset, sentence_index: int, nouns: list):
    """Lower a pregroup tree to (body element, its nouns' token indices in
    order), appending its noun states to ``nouns``.

    Noun leaves become identity wires plus a noun state; noun leaves in
    ``remove`` vanish entirely.  A node whose children contribute no
    sub-diagram becomes a box over its nouns' wires, otherwise a frame
    containing the surviving sub-diagrams.
    """
    if node.is_leaf() and node.token_index in noun_tokens:
        if node.token_index in remove:
            return Empty(), ()
        nouns.append(NounState(node.word, sentence_index, node.token_index))
        return Identity((node.token_index,)), (node.token_index,)

    subdiags, wires = [], []
    for child in node.children:
        el, below = _lower(child, remove, noun_tokens, sentence_index, nouns)
        if not _is_trivial(el):
            subdiags.append(el)
        wires.extend(below)
    wires = tuple(sorted(wires))
    if not subdiags:
        if not wires:
            log.warning("dropping zero-wire box %r", node.word)
            return Empty(), ()
        return Box(node.word, wires), wires
    return Frame(node.word, wires, tuple(subdiags)), wires


def sentence_diagram(forest: list[PregroupTreeNode],
                     remove: frozenset = frozenset(),
                     noun_tokens: frozenset = frozenset(),
                     sentence_index: int = 0) -> SentenceDiagram:
    """Lower a whole sentence (possibly a forest) to one diagram.

    Raises EmptySentence when filtering leaves nothing behind, signalling
    the composer to skip the sentence.
    """
    bodies, nouns = [], []
    for root in forest:
        el, _ = _lower(root, remove, noun_tokens, sentence_index, nouns)
        if not _is_trivial(el):
            bodies.append(el)
    nouns.sort(key=lambda n: n.token_index)
    if not nouns:
        raise EmptySentence(
            f"sentence {sentence_index}: nothing left after filtering")
    if not bodies:
        body = Identity(tuple(n.token_index for n in nouns))
    elif len(bodies) == 1:
        body = bodies[0]
    else:
        body = Par(tuple(bodies))
    return SentenceDiagram(nouns, body)


def min_frequency_filter(coref: CorefMap, k: int) -> set:
    """Mentions of every chain seen fewer than ``k`` times."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = set()
    for chain in coref.chains:
        if len(chain) < k:
            out.update(chain)
    return out


def prune_boxes(body, removed_wires: frozenset):
    """Delete boxes and frames supported only on removed wires.

    Surviving boxes and frames shrink their wire sets; a frame whose
    components all vanish degrades to a box over its surviving wires.
    """
    removed = frozenset(removed_wires)

    def prune(el):
        if isinstance(el, Box):
            wires = tuple(w for w in el.wires if w not in removed)
            return Box(el.name, wires, el.merge) if wires else Empty()
        if isinstance(el, Identity):
            wires = tuple(w for w in el.wires if w not in removed)
            return Identity(wires) if wires else Empty()
        if isinstance(el, Frame):
            wires = tuple(w for w in el.wires if w not in removed)
            if not wires:
                return Empty()
            comps = [prune(c) for c in el.components]
            comps = [c for c in comps if not isinstance(c, Empty)]
            if not comps:
                return Box(el.name, wires)
            return Frame(el.name, wires, tuple(comps))
        if isinstance(el, Seq):
            elems = [prune(c) for c in el.elements]
            elems = [c for c in elems if not isinstance(c, Empty)]
            return Seq(tuple(elems)) if elems else Empty()
        if isinstance(el, Par):
            elems = [prune(c) for c in el.elements]
            elems = [c for c in elems if not isinstance(c, Empty)]
            return Par(tuple(elems)) if elems else Empty()
        return el

    return prune(body)


# --- dumps ------------------------------------------------------------------

def dump_element(el, depth: int = 0, indent: str = "  ") -> str:
    pad = indent * depth
    if isinstance(el, Box):
        tag = "merge-box" if el.merge else "box"
        return f"{pad}{tag} {el.name} {list(el.wires)}"
    if isinstance(el, Frame):
        lines = [f"{pad}frame {el.name} {list(el.wires)}"]
        lines += [dump_element(c, depth + 1, indent) for c in el.components]
        return "\n".join(lines)
    if isinstance(el, Identity):
        return f"{pad}id {list(el.wires)}"
    if isinstance(el, Empty):
        return f"{pad}empty"
    if isinstance(el, Perm):
        return f"{pad}perm {list(el.wires)} to {list(el.positions)}"
    if isinstance(el, Spider):
        arrow = "copy" if el.dagger else "merge"
        return f"{pad}spider-{arrow} {list(el.in_wires)} ~ {el.out_wire}"
    if isinstance(el, (Seq, Par)):
        kind = "seq" if isinstance(el, Seq) else "par"
        lines = [f"{pad}{kind}"]
        lines += [dump_element(c, depth + 1, indent) for c in el.elements]
        return "\n".join(lines)
    raise TypeError(f"not a diagram element: {el!r}")


def sentence_to_dot(sd: SentenceDiagram) -> str:
    """DOT dump of a sentence diagram for external rendering."""
    lines = ["digraph sentence {", "  rankdir=TB;"]
    for n in sd.nouns:
        lines.append(f'  n{n.token_index} [label="{n.word}" shape=ellipse];')
    counter = [0]

    def visit(el, parent_wires):
        if isinstance(el, (Box, Frame)):
            node_id = f"b{counter[0]}"
            counter[0] += 1
            shape = "box3d" if isinstance(el, Frame) else "box"
            lines.append(f'  {node_id} [label="{el.name}" shape={shape}];')
            for w in el.wires:
                lines.append(f"  n{w} -> {node_id};")
            if isinstance(el, Frame):
                for c in el.components:
                    child = visit(c, el.wires)
                    if child:
                        lines.append(
                            f"  {node_id} -> {child} [style=dashed];")
            return node_id
        if isinstance(el, (Seq, Par)):
            last = None
            for c in el.elements:
                last = visit(c, parent_wires) or last
            return last
        return None

    visit(sd.body, ())
    lines.append("}")
    return "\n".join(lines)
