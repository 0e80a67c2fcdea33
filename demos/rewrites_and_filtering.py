"""Shrink a text's circuit with grammar rewrites and noun filtering.

Run with:  python3 demos/rewrites_and_filtering.py
"""

from discocirc.frames import dump_element
from discocirc.ingest import Lexicon, parse_text
from discocirc.pipeline import (PipelineConfig, diagrams, removed_mentions,
                                treeize)
from discocirc.rewrite import builtin_rule
from discocirc.trees import dump_tree

TEXT = [
    ["Alice", "bought", "a", "blue", "bike"],
    ["It", "has", "a", "large", "basket"],
    ["She", "enjoys", "her", "groceries"],
]

doc = parse_text(TEXT, Lexicon.builtin())


def show(cfg):
    td = diagrams(doc, treeize(doc, cfg), cfg)
    print("states:", [s.word for s in td.states])
    for layer in td.layers:
        print(dump_element(layer))


print("=== plain lowering ===")
show(PipelineConfig())

print("\n=== after determiner + noun_modification rewrites ===")
rules = [builtin_rule("determiner"), builtin_rule("noun_modification")]
cfg = PipelineConfig(rewrites=rules)
[root] = treeize(doc, cfg)[0].forest
print(dump_tree(root))
show(cfg)

print("\n=== dropping chains mentioned fewer than twice ===")
cfg = PipelineConfig(rewrites=rules, min_noun_frequency=2)
print("removed mentions:", sorted(removed_mentions(doc, cfg)))
show(cfg)
