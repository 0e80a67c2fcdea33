"""Frame elimination: every frame becomes pairs of parameterised boxes.

A frame over wires W with components c1..cm expands, per component, into a
bottom box on W, the (recursively expanded) component, and a top box on W.
Boxes address their wires by id, so no component needs routing or padding.
In shared mode every layer of one frame reuses a single top/bottom pair;
foliated mode gives each layer its own pair.  A composed sentence is
stamped from its word-free body's expansion, made once per body.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .compose import TextDiagram
from .frames import Box, Frame, Identity, Par, Perm, Spider
from .trees import TREE_MEMO_SIZE, _spell


@dataclass(frozen=True)
class SandwichConfig:
    mode: str = "shared"  # or "foliated"

    def __post_init__(self):
        if self.mode not in ("shared", "foliated"):
            raise ValueError(f"unknown sandwich mode {self.mode!r}")


def _expand(elements, mode: str, layers: list, label=str.__add__) -> list:
    """Append the flat layers replacing a sequence of elements to
    ``layers``, and return it; a frame's boxes are named ``label(frame's
    name, tag)``, the tag "_bot" or "_top" and, when foliated, "_<i>"."""
    for el in elements:
        if isinstance(el, Frame):
            for i, comp in enumerate(el.components, start=1):
                if i == 1 or mode != "shared":  # one pair when shared
                    tag = "" if mode == "shared" else f"_{i}"
                    bot = Box(label(el.name, f"_bot{tag}"), el.wires)
                    top = Box(label(el.name, f"_top{tag}"), el.wires)
                layers.append(bot)
                _expand((comp,), mode, layers, label)
                layers.append(top)
        elif isinstance(el, Par):
            _expand(el.elements, mode, layers, label)
        elif not isinstance(el, Identity):
            layers.append(el)
    return layers


@lru_cache(maxsize=TREE_MEMO_SIZE)
def _template(body, mode: str) -> tuple:
    """A word-free sentence body's expansion, kept once per process for
    each (body, mode), the last ``TREE_MEMO_SIZE`` used: the tokens of
    its boxes' wires, and per box its (name, tag, slice of those tokens)
    or, when it repeats a box, the index of that box's entry."""
    tokens, entries, first = [], [], {}
    for box in _expand((body,), mode, [], lambda name, tag: (name, tag)):
        if id(box) in first:
            entries.append(first[id(box)])
            continue
        first[id(box)] = len(entries)
        name, tag = box.name if type(box.name[0]) is tuple else (box.name, "")
        entries.append((name, tag, len(tokens), len(tokens) + len(box.wires)))
        tokens += box.wires
    return tuple(tokens), tuple(entries)


def expand_frames(td: TextDiagram, cfg: SandwichConfig) -> TextDiagram:
    """Expand every frame of a text diagram into sandwich layers.

    Wire count and chain order are untouched; the result is flat, every
    layer a Box, a Spider or a Perm.  A row of the diagram's parts is
    stamped from its body's template, with the row's words and wires; a
    Perm or a Spider is kept, and any other part goes through ``_expand``.
    """
    layers: list = []
    for part in td._parts:
        kind = type(part)
        if kind is Perm or kind is Spider:
            layers.append(part)
        elif kind is not tuple:
            _expand((part,), cfg.mode, layers)
        else:
            body, wire, words = part
            tokens, entries = _template(body, cfg.mode)
            wires, start = tuple(map(wire, tokens)), len(layers)
            for entry in entries:
                if type(entry) is int:
                    layers.append(layers[start + entry])
                    continue
                name, tag, i, j = entry
                # built directly: a NamedTuple's own __new__ is a Python call
                layers.append(tuple.__new__(
                    Box, (_spell(name, words) + tag, wires[i:j], False)))
    return TextDiagram(td.states, layers)
