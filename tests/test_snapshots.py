"""Snapshot oracle: what the compiled circuits compute must not move.

For every fixture document, a few seeded pronoun stories and some
hand-built frames, each under
{iqp, sim4} x {shared, foliated}, the output distribution and the
postselection success probability at the circuit's own initial parameters
are pinned in ``fixtures/snapshots.json`` to 1e-12.  Refactors of the
composition, frame expansion or compilation stages must keep them; a
change that is meant to alter the circuits regenerates the file with

    PYTHONPATH=src python tests/test_snapshots.py
"""

import json
import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from discocirc.ansatz import AnsatzConfig
from discocirc.compose import TextDiagram
from discocirc.frames import Box, Frame, NounState, SentenceDiagram, Spider
from discocirc.ingest import CorefMap, read_json
from discocirc.pipeline import (PipelineConfig, apply_coordination, circuit,
                                diagrams, ingest, resolve_rewrites, treeize)
from discocirc.sandwich import SandwichConfig
from discocirc.sim import simulate
from util import compose_spelled

FIXTURES = Path(__file__).parent / "fixtures"
SNAPSHOTS = FIXTURES / "snapshots.json"
TOLERANCE = 1e-12

# (fixture, rewrites); corpus.json is a grammar corpus rather than a
# story, and its 15 wires exceed the simulator's qubit cap
DOCUMENTS = [
    ("bike_pruning", ()),
    ("bike_rewrites", ()),
    ("bike_rewrites", ("determiner", "noun_modification")),
    ("hard_reading", ()),
    ("music_piano", ()),
    ("music_piano", ("coordination",)),
    ("reading", ()),
    ("treasure_hunt", ()),
]
STORY_SEEDS = [0, 1, 2, 3]
CONFIGS = [(kind, mode) for kind in ("iqp", "sim4")
           for mode in ("shared", "foliated")]

FEMALE = ["Alice", "woman", "programmer"]
MALE = ["Bob", "man", "chef"]
VERBS = ["reads", "loves", "found", "bought", "likes", "plays", "saw",
         "makes", "enjoys", "writes"]
OBJECTS = ["books", "map", "clues", "music", "piano", "bread", "code",
           "letter", "garden", "story"]


def pronoun_story(seed: int) -> list[list[str]]:
    """Two gendered subjects, pronoun sentences alternating between them,
    and a closing reflexive sentence whose chain is copied by a spider."""
    rng = random.Random(seed)
    sentences = [[rng.choice(FEMALE), rng.choice(VERBS), "the",
                  rng.choice(OBJECTS)],
                 [rng.choice(MALE), rng.choice(VERBS), "the",
                  rng.choice(OBJECTS)]]
    for i in range(1 + seed % 3):
        sentences.append(["She" if i % 2 == 0 else "He", rng.choice(VERBS),
                          "the", rng.choice(OBJECTS)])
    sentences.append(["She", rng.choice(VERBS), "herself"])
    return sentences


def gapped_frames() -> dict:
    """Hand-built frames whose components sit on non-adjacent wires or in
    reverse wire order, which natural sentences rarely produce."""
    return {
        "frame_gapped": Frame("f", (0, 1, 2), (Box("g", (0, 2)),)),
        "frame_two_components": Frame(
            "f", (0, 1, 2, 3), (Box("g", (3, 0)), Box("h", (1, 3)))),
        "frame_nested": Frame(
            "outer", (0, 1, 2),
            (Frame("inner", (0, 2), (Box("leaf", (2, 0)),)),
             Box("h", (1,)))),
    }


def document_diagram(source, cfg) -> TextDiagram:
    doc = apply_coordination(ingest(source, cfg.lexicon), cfg)
    return diagrams(doc, treeize(doc, cfg), cfg)


def frame_diagram(body, cfg) -> TextDiagram:
    wires = body.wires
    nouns = [NounState("abcd"[w], 0, w) for w in wires]
    return compose_spelled([SentenceDiagram(nouns, body)],
                           CorefMap([[(0, w)] for w in wires]))


def sources() -> dict[str, tuple]:
    """Case name -> (rewrite names, text diagram builder)."""
    out = {}
    for name, rules in DOCUMENTS:
        raw = read_json(FIXTURES / f"{name}.json")
        out["+".join((name,) + rules)] = (
            rules, partial(document_diagram, raw))
    for seed in STORY_SEEDS:
        out[f"story{seed}"] = (
            (), partial(document_diagram, {"tokens": pronoun_story(seed)}))
    for name, body in gapped_frames().items():
        out[name] = ((), partial(frame_diagram, body))
    return out


def snapshot(source: tuple, kind: str, mode: str) -> dict:
    """(distribution, success) of one case at its initial parameters."""
    rules, build = source
    cfg = PipelineConfig(sandwich=SandwichConfig(mode),
                         ansatz=AnsatzConfig(kind, seed=0))
    resolve_rewrites(list(rules), cfg)
    c = circuit(build(cfg), cfg)
    dist, success = simulate(c, c.symbols)
    return {"distribution": [float(p) for p in dist], "success": success}


def record() -> dict:
    return {f"{name}/{kind}/{mode}": snapshot(src, kind, mode)
            for name, src in sources().items() for kind, mode in CONFIGS}


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(SNAPSHOTS.read_text(encoding="utf-8"))


def test_snapshot_file_covers_every_case(snapshots):
    assert sorted(snapshots) == sorted(
        f"{name}/{kind}/{mode}" for name in sources()
        for kind, mode in CONFIGS)


@pytest.mark.parametrize("name", sorted(sources()))
def test_distribution_and_success_unchanged(name, snapshots):
    for kind, mode in CONFIGS:
        got = snapshot(sources()[name], kind, mode)
        want = snapshots[f"{name}/{kind}/{mode}"]
        assert len(got["distribution"]) == len(want["distribution"])
        assert np.max(np.abs(np.subtract(
            got["distribution"], want["distribution"]))) <= TOLERANCE
        assert abs(got["success"] - want["success"]) <= TOLERANCE


def test_stories_reach_the_spider_path():
    cfg = PipelineConfig()
    for seed in STORY_SEEDS:
        td = document_diagram({"tokens": pronoun_story(seed)}, cfg)
        assert any(isinstance(layer, Spider) for layer in td.layers)


if __name__ == "__main__":
    SNAPSHOTS.write_text(json.dumps(record(), indent=1, sort_keys=True)
                         + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOTS}")
