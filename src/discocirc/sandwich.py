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
from .errors import UnexpandedFrame
from .frames import Box, Frame, Identity, Par


@dataclass(frozen=True)
class SandwichConfig:
    mode: str = "shared"  # or "foliated"

    def __post_init__(self):
        if self.mode not in ("shared", "foliated"):
            raise ValueError(f"unknown sandwich mode {self.mode!r}")


def _expand_element(el, cfg: SandwichConfig) -> list:
    """Layers replacing one element of a body layer."""
    if isinstance(el, Frame):
        layers = []
        for i, comp in enumerate(el.components, start=1):
            if cfg.mode == "shared":
                bot_name, top_name = f"{el.name}_bot", f"{el.name}_top"
            else:
                bot_name, top_name = f"{el.name}_bot_{i}", f"{el.name}_top_{i}"
            layers.append(Box(bot_name, el.wires))
            layers += _expand_element(comp, cfg)
            layers.append(Box(top_name, el.wires))
        return layers
    if isinstance(el, Par):
        layers = []
        for sub in el.elements:
            layers += _expand_element(sub, cfg)
        return layers
    if isinstance(el, Identity):
        return []
    return [el]


def _has_frame(el) -> bool:
    if isinstance(el, Frame):
        return True
    if isinstance(el, Par):
        return any(_has_frame(sub) for sub in el.elements)
    return False


def expand_frames(td: TextDiagram, cfg: SandwichConfig) -> TextDiagram:
    """Expand every frame of a text diagram into sandwich layers.

    Wire count and chain order are untouched; the result contains no
    Frame elements.
    """
    new_layers = []
    for layer in td.layers:
        if _has_frame(layer):
            new_layers += _expand_element(layer, cfg)
        else:
            new_layers.append(layer)
    result = TextDiagram(td.states, new_layers)
    if count_frames(result):
        raise UnexpandedFrame("frame survived expansion")
    return result


def count_frames(td: TextDiagram) -> int:
    return sum(_has_frame(layer) for layer in td.layers)
