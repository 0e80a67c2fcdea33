"""Stitch sentence diagrams into one document-level text diagram.

Sentences compose along wires carrying the same coreference chain.  Each
sentence contributes: one permutation moving its chains after the
untouched ones (only when that changes the order), spider copies for
chains mentioned twice within the sentence, the sentence body, then the
daggered spiders and the inverse permutation restoring the global wire
order.  Every element addresses wires by id, so a permutation is a
relabelling of the wire order and the body needs no identity padding.
Wire ids are chain ids; within-sentence duplicate mentions use
(chain_id, k) copy ids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ChainMismatch
from .frames import (
    Box,
    Empty,
    Frame,
    Identity,
    NounState,
    Par,
    Perm,
    SentenceDiagram,
    Spider,
    iter_boxes,
    map_wires,
)
from .ingest import CorefMap

log = logging.getLogger(__name__)


@dataclass
class TextDiagram:
    """Document-level diagram: one state per chain plus stacked layers."""

    states: list[NounState]
    layers: list
    chain_order: dict[int, int] = field(default_factory=dict)

    @property
    def wire_count(self) -> int:
        return len(self.states)


def compose_document(sentences: list[SentenceDiagram | None],
                     coref: CorefMap) -> TextDiagram:
    """Fold sentence diagrams into a document diagram along chains.

    ``None`` entries (sentences emptied by filtering) are skipped.  Every
    noun state must belong to a chain of ``coref``.
    """
    chain_of = {}
    for ci, chain in enumerate(coref.chains):
        for m in chain:
            chain_of[m] = ci

    states: list[NounState] = []
    known: set[int] = set()
    order: list[int] = []
    layers: list = []

    for sd in sentences:
        if sd is None:
            log.info("skipping empty sentence")
            continue
        local: list[tuple[NounState, int]] = []
        for noun in sd.nouns:
            mention = (noun.sentence_index, noun.token_index)
            if mention not in chain_of:
                raise ChainMismatch(f"noun {noun.word!r} at {mention} "
                                    "belongs to no coreference chain")
            local.append((noun, chain_of[mention]))

        local_unique: list[int] = []
        counts: dict[int, int] = {}
        for _, cid in local:
            counts[cid] = counts.get(cid, 0) + 1
            if cid not in local_unique:
                local_unique.append(cid)
        new = [cid for cid in local_unique if cid not in known]
        shared = [cid for cid in local_unique if cid in known]

        for noun, cid in local:
            if cid not in known:  # a new chain's state is its first mention
                known.add(cid)
                states.append(
                    NounState(noun.word, noun.sentence_index,
                              noun.token_index, cid))
        order += new

        # wire ids for the body: first mention of a chain keeps the chain
        # id, further mentions get copy ids
        seen: dict[int, int] = {}
        token_to_wire = {}
        for noun, cid in local:
            k = seen.get(cid, 0)
            seen[cid] = k + 1
            token_to_wire[noun.token_index] = cid if k == 0 else (cid, k)
        body = map_wires(sd.body, lambda t: token_to_wire[t])

        # route: untouched chains first, then this sentence's chains in
        # local order; new chains already sit at the end in that order
        target = ([c for c in order if c not in local_unique]
                  + local_unique) if shared else order
        routed = target != order
        if routed:
            at = {c: i for i, c in enumerate(order)}
            layers.append(Perm(tuple(order), tuple(at[c] for c in target)))
        copies = [Spider((cid,) + tuple((cid, k) for k in range(1, n)), cid,
                         dagger=True)
                  for cid, n in counts.items() if n > 1]
        layers += copies
        layers.append(body)
        layers += [Spider(c.in_wires, c.out_wire) for c in reversed(copies)]
        if routed:
            at = {c: i for i, c in enumerate(target)}
            layers.append(Perm(tuple(target), tuple(at[c] for c in order)))

    td = TextDiagram(states, layers,
                     {cid: i for i, cid in enumerate(order)})
    return td


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
        if isinstance(el, Empty):
            return {"kind": "empty"}
        if isinstance(el, Perm):
            return {"kind": "perm", "wires": list(el.wires),
                    "mapping": list(el.mapping)}
        if isinstance(el, Spider):
            return {"kind": "spider", "in_wires": list(el.in_wires),
                    "out_wire": el.out_wire, "dagger": el.dagger}
        if isinstance(el, Par):
            return {"kind": "par", "elements": [enc(c) for c in el.elements]}
        return {"kind": "seq", "elements": [enc(c) for c in el.elements]}

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
