"""Stitch sentence diagrams into one document-level text diagram.

Sentences compose along wires carrying the same coreference chain.  Each
sentence contributes: one permutation moving its chains, in local order,
to the end of the wire order (only when they are not already there),
spider copies for chains mentioned twice within the sentence, the
sentence body, then the daggered spiders and the inverse permutation
putting its chains back.  Between sentences the wire order is therefore
always the order in which chains were introduced.  Every element
addresses wires by id, so a permutation is a relabelling of the wire
order that names only the chains it moves, and the body needs no
identity padding.  Wire ids are chain ids; within-sentence duplicate
mentions use (chain_id, k) copy ids.
"""

from __future__ import annotations

import logging

from .errors import ChainMismatch
from .frames import (
    Box,
    Frame,
    Identity,
    NounState,
    Par,
    Perm,
    Spider,
    iter_boxes,
    map_wires,
)
from .ingest import CorefMap
from .trees import _spell

log = logging.getLogger(__name__)


class TextDiagram:
    """Document-level diagram: one state per chain plus stacked layers.

    ``expand_frames`` walks its parts: a composed diagram's sentence
    bodies as rows, the (word-free body, wire of each token, words) that
    ``map_wires`` takes, and its other layers as they are; a hand-built
    one's layers.  The layers are built on first read, beside the parts:
    editing them does not change the parts."""

    def __init__(self, states: list[NounState], layers: list, _parts=None):
        self.states, self._layers = states, layers
        self._parts = layers if _parts is None else _parts

    @property
    def layers(self) -> list:
        if self._layers is None:
            self._layers = [map_wires(*p) if type(p) is tuple else p
                            for p in self._parts]
        return self._layers

    def __eq__(self, other):
        return (self.states, self.layers) == (other.states, other.layers) \
            if type(other) is TextDiagram else NotImplemented

    def __repr__(self):
        return f"TextDiagram({self.states!r}, {self.layers!r})"

    @property
    def chain_order(self) -> dict[int, int]:
        """Chain id -> introduction position, which is its state's index."""
        return {s.chain_id: i for i, s in enumerate(self.states)}


def compose_document(sentences: list, coref: CorefMap) -> TextDiagram:
    """Fold sentence diagrams into a document diagram along chains.

    A sentence is the (word-free diagram, words, sentence index) triple
    that ``pipeline.diagrams`` passes: its words go on its noun states,
    and its body goes in a row.  A sentence with no nouns (all removed by
    filtering) is skipped.  Every noun state must belong to a chain of
    ``coref``.
    """
    chain_of = {}
    for ci, chain in enumerate(coref.chains):
        for m in chain:
            chain_of[m] = ci

    states: list[NounState] = []
    position: dict[int, int] = {}  # chain id -> introduction position
    parts: list = []

    for si, ((nouns, body), words, at) in enumerate(sentences):
        if not nouns:
            log.info("sentence %d empty after filtering", si)
            continue

        # one pass over the nouns, in token order: a new chain's state is
        # its first mention, and its wire goes last; in the body, the first
        # mention of a chain keeps the chain id, and further mentions get
        # copy ids
        counts: dict[int, int] = {}
        token_to_wire = {}
        before = len(states)
        shared = False  # whether a chain of an earlier sentence is here
        for leaf in nouns:
            token = leaf.token_index
            cid = chain_of.get((at, token))
            if cid is None or cid not in position:
                word = _spell(leaf.word, words)
                if cid is None:
                    raise ChainMismatch(f"noun {word!r} at {(at, token)} "
                                        "belongs to no coreference chain")
                position[cid] = len(states)
                states.append(tuple.__new__(NounState, (word, at, token, cid)))
            elif position[cid] < before:
                shared = True
            k = counts.get(cid, 0)
            counts[cid] = k + 1
            token_to_wire[token] = cid if k == 0 else (cid, k)
        row = (body, token_to_wire.__getitem__, words)
        if not shared and len(counts) == len(nouns):
            parts.append(row)  # new chains, each mentioned once
            continue

        # route this sentence's chains, in local order, to the end of the
        # wire order; new chains already sit there in that order
        local_unique = list(counts)  # first-mention order
        tail = len(states) - len(local_unique)
        routed = shared and \
            [s.chain_id for s in states[tail:]] != local_unique
        wires = tuple(local_unique)
        if routed:
            parts.append(Perm(wires, tuple(range(tail, len(states)))))
        copies = [Spider((cid,) + tuple((cid, k) for k in range(1, n)), cid,
                         dagger=True)
                  for cid, n in counts.items() if n > 1]
        parts += copies
        parts.append(row)
        parts += [Spider(c.in_wires, c.out_wire) for c in reversed(copies)]
        if routed:
            parts.append(Perm(wires, tuple([position[c] for c in wires])))

    return TextDiagram(states, None, parts)


def wire_box_sequences(td: TextDiagram) -> dict[int, list[str]]:
    """Per-chain sequence of box/frame names, in layer order."""
    seqs: dict[int, list[str]] = {s.chain_id: [] for s in td.states}
    for layer in td.layers:
        for box in iter_boxes(layer):
            for w in box.wires:
                cid = w[0] if isinstance(w, tuple) else w
                seqs[cid].append(box.name)
    return seqs


def text_diagram_to_json(td: TextDiagram) -> dict:
    """JSON dump of a text diagram (states plus typed layers)."""
    def enc(el):
        if isinstance(el, Box):
            d = {"kind": "box", "name": el.name, "wires": list(el.wires)}
            if el.merge:
                d["merge"] = True
            return d
        if isinstance(el, Frame):
            return {"kind": "frame", "name": el.name,
                    "wires": list(el.wires),
                    "components": [enc(c) for c in el.components]}
        if isinstance(el, Identity):
            return {"kind": "id", "wires": list(el.wires)}
        if isinstance(el, Perm):
            return {"kind": "perm", "wires": list(el.wires),
                    "positions": list(el.positions)}
        if isinstance(el, Spider):
            return {"kind": "spider", "in_wires": list(el.in_wires),
                    "out_wire": el.out_wire, "dagger": el.dagger}
        if isinstance(el, Par):
            return {"kind": "par", "elements": [enc(c) for c in el.elements]}
        raise TypeError(f"not a diagram element: {el!r}")

    return {
        "states": [
            {"word": s.word, "sentence": s.sentence_index,
             "token": s.token_index, "chain": s.chain_id}
            for s in td.states
        ],
        "layers": [enc(layer) for layer in td.layers],
        "chain_order": {str(k): v for k, v in td.chain_order.items()},
    }


def text_diagram_to_dot(td: TextDiagram) -> str:
    """DOT dump: states on top, boxes in layer order below."""
    lines = ["digraph text {", "  rankdir=TB;"]
    for s in td.states:
        lines.append(f'  s{s.chain_id} [label="{s.word}" shape=ellipse];')
    last_on: dict[int, str] = {s.chain_id: f"s{s.chain_id}"
                               for s in td.states}
    counter = 0
    for layer in td.layers:
        for box in iter_boxes(layer):
            node = f"b{counter}"
            counter += 1
            shape = "box3d" if isinstance(box, Frame) else "box"
            lines.append(f'  {node} [label="{box.name}" shape={shape}];')
            for w in box.wires:
                cid = w[0] if isinstance(w, tuple) else w
                if cid in last_on:
                    lines.append(f"  {last_on[cid]} -> {node};")
                    last_on[cid] = node
    lines.append("}")
    return "\n".join(lines)
