"""Frame elimination: every frame becomes pairs of parameterised boxes.

A frame over wires W with components c1..cm expands, per component, into a
bottom box on W, the (recursively expanded) component, and a top box on W.
Boxes address their wires by id, so no component needs routing or padding.
In shared mode every layer of one frame reuses a single top/bottom pair;
foliated mode gives each layer its own pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compose import TextDiagram
from .frames import Box, Frame, Identity, Par


@dataclass(frozen=True)
class SandwichConfig:
    mode: str = "shared"  # or "foliated"

    def __post_init__(self):
        if self.mode not in ("shared", "foliated"):
            raise ValueError(f"unknown sandwich mode {self.mode!r}")


def _expand(elements, cfg: SandwichConfig, layers: list) -> list:
    """Append the flat layers replacing a sequence of elements to
    ``layers``, and return it."""
    for el in elements:
        if isinstance(el, Frame):
            for i, comp in enumerate(el.components, start=1):
                if i == 1 or cfg.mode != "shared":  # one pair when shared
                    tag = "" if cfg.mode == "shared" else f"_{i}"
                    bot = Box(f"{el.name}_bot{tag}", el.wires)
                    top = Box(f"{el.name}_top{tag}", el.wires)
                layers.append(bot)
                _expand((comp,), cfg, layers)
                layers.append(top)
        elif isinstance(el, Par):
            _expand(el.elements, cfg, layers)
        elif not isinstance(el, Identity):
            layers.append(el)
    return layers


def expand_frames(td: TextDiagram, cfg: SandwichConfig) -> TextDiagram:
    """Expand every frame of a text diagram into sandwich layers.

    Wire count and chain order are untouched; the result is flat, every
    layer a Box, a Spider or a Perm.
    """
    return TextDiagram(td.states, _expand(td.layers, cfg, []))
