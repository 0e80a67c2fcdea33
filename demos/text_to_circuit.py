"""Walk a three-sentence story through every stage of the compiler.

Run with:  python3 demos/text_to_circuit.py
"""

import numpy as np

from discocirc.ansatz import AnsatzConfig, append_merge_box, compile, \
    dump_circuit
from discocirc.compose import wire_box_sequences
from discocirc.frames import dump_element, sentence_diagram
from discocirc.ingest import Lexicon, parse_text
from discocirc.pipeline import PipelineConfig, diagrams, treeize
from discocirc.sandwich import SandwichConfig, expand_frames
from discocirc.sim import simulate
from discocirc.trees import build_trees, dump_tree

TEXT = [
    ["Alice", "found", "a", "map"],
    ["She", "followed", "the", "clues"],
    ["It", "led", "to", "treasure"],
]

lex = Lexicon.builtin()

print("=== 1. parse and resolve pronouns ===")
doc = parse_text(TEXT, lex)
for d in doc.sentences:
    print(" ", " ".join(d.words), "  cups:", list(d.cups))
print("coreference chains:", doc.corefs.chains)

print("\n=== 2. pregroup trees ===")
forests = [build_trees(d).forest for d in doc.sentences]
for forest in forests:
    for root in forest:
        print(dump_tree(root))
    print()

print("=== 3. sentence diagrams (nouns dragged to the top) ===")
for si, (d, forest) in enumerate(zip(doc.sentences, forests)):
    nouns = frozenset(ti for ti, (w, _) in enumerate(d.tokens)
                      if lex.is_noun(w))
    sd = sentence_diagram(forest, frozenset(), nouns, si)
    print(" ", [n.word for n in sd.nouns])
    print(dump_element(sd.body, depth=1))

print("\n=== 4. document composition along chains ===")
cfg = PipelineConfig(lexicon=lex)
td = diagrams(doc, treeize(doc, cfg), cfg)
print("states:", [s.word for s in td.states])
for wire, boxes in sorted(wire_box_sequences(td).items()):
    word = td.states[wire].word
    print(f"  {word}: {' -> '.join(boxes)}")

print("\n=== 5. sandwich expansion (no frames left) ===")
td = expand_frames(td, SandwichConfig("shared"))
for layer in td.layers:
    print(dump_element(layer))

print("\n=== 6. circuit (IQP ansatz, 1 qubit per wire) ===")
td = append_merge_box(td)
circuit = compile(td, AnsatzConfig("iqp", 1, 1, seed=0))
print(dump_circuit(circuit))

dist, success = simulate(circuit, circuit.symbols)
print("\noutput distribution:", np.round(dist, 4),
      " postselection probability:", round(success, 4))
