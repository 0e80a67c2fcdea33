"""The output corpus: every artifact the pipeline dumps for a seeded set
of inputs, pinned by one SHA-256 per (input family, output kind).

The inputs are the document fixtures, the two bad-cups documents, seeded
token documents (a pronoun chain, fresh entities, two-topic paragraphs
and stories that end in a reflexive, which makes a spider), documents
that fail to parse, interchange documents of random loopy diagrams,
whose forests lower to ``Par`` layers, and a slice of one seed's inputs
of the four benchmark workloads, drawn by ``perfbench/workloads.py``.  Each runs under every rule set
of ``RULE_SETS`` and every noun filter of ``FILTERS``, and dumps:

- the ingested document (``document_to_json``);
- per rule set, the document after coordination, the forests as JSON
  and as ``dump_tree`` text, and the removed cups;
- per rule set and filter, the text diagram as JSON before and after
  ``expand_frames`` in both sandwich modes, and the circuit as JSON and
  as ``dump_circuit`` text under every ansatz of ``CIRCUITS``;
- for a stage that fails, the error's class, exit code and message.

Circuits are compiled under the command line's default qubit cap, so a
document too wide for it pins its ``CapExceeded``.  The corpus pins
exact text only: distributions, gradients and training stay on the
tolerance oracles.  A failure names the (family,
kind) whose hash moved.  ``python tests/test_corpus.py --write``
regenerates ``tests/fixtures/corpus.sha256.json``; a change that does
so says why.

One paper-scale circuit is pinned apart, by the hashes of its JSON and
``dump_circuit`` text written here: the 1,600-sentence "she" chain
(seed 2) compiled with the qubit cap lifted, under the default ansatz and
under two-layer sim4 with a fresh parameter set per box occurrence.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script, with no PYTHONPATH set
    sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "perfbench"))  # for its input generators

from discocirc.ansatz import (AnsatzConfig, append_merge_box,
                              circuit_to_json, compile, dump_circuit)
from discocirc.compose import text_diagram_to_json
from discocirc.errors import DiscocircError
from discocirc.ingest import Lexicon, document_to_json, read_json
from discocirc.pipeline import (PipelineConfig, apply_coordination,
                                diagrams, ingest, resolve_rewrites, run,
                                treeize)
from discocirc.sandwich import SandwichConfig, expand_frames
from discocirc.trees import dump_tree, forest_to_json
from test_cli import BAD_CUPS
from util import (COOKING, OBJECTS, PROGRAMMING, VERBS,
                  chain_document, entity_document, random_loopy_diagram,
                  topic_text)
import workloads

FIXTURES = ROOT / "tests" / "fixtures"
HASHES = FIXTURES / "corpus.sha256.json"
DOCUMENTS = ("bike_pruning", "bike_rewrites", "corpus", "hard_reading",
             "music_piano", "reading", "treasure_hunt")
RULE_SETS = ((), ("determiner", "noun_modification"), ("auxiliary",),
             ("coordination", "determiner", "auxiliary", "noun_modification"))
# no filter, a frequency floor, and the document's first noun removed
FILTERS = ("none", "min2", "remove")
# the seed of the benchmark workloads' inputs, and how many of them: the
# first texts of the two-topic set, one story per width, and the first
# sentences of each long document
WORKLOAD_SEED = 3
TOPIC_TEXTS = 6
DOC_SENTENCES = 12
# (ansatz, sandwich mode); the last case also gives every further
# occurrence of a box its own parameters
CIRCUITS = tuple((AnsatzConfig(kind, 1, 1, True, 0), mode)
                 for kind in ("iqp", "sim4")
                 for mode in ("shared", "foliated")) \
    + ((AnsatzConfig("sim4", 2, 2, False, 0), "shared"),)


# (ansatz, circuit JSON hash, dump_circuit hash) of the paper-scale chain
PAPER_SCALE = (
    (AnsatzConfig(),
     "a9a6a5e0e55b29212434474e4557955c9c9cc08268a3d479b975905bd71d6dad",
     "476a7be1a0ee5fb720ecc2cb13bb46f74023c33197c133142c9e8599180756b0"),
    (AnsatzConfig("sim4", 1, 2, False, 0),
     "2b6483e259a740e3c9e2caabea67b059cd66f4b9bacd45760ce4553cc72234cc",
     "f1cf01043ad9fb2ba7bfd51e094e2fc66d015460bf785ad6d7b2202b17d03c03"),
)


def loopy_document(rng: random.Random, n_sentences: int) -> dict:
    """An interchange document of random loopy diagrams: about half the
    tokens are nouns, and some nouns share chains of two or three
    mentions, within a sentence as well as across sentences."""
    sentences, nouns = [], []
    for si in range(n_sentences):
        d = random_loopy_diagram(rng)
        words = []
        for ti in range(len(d.tokens)):
            if rng.random() < 0.5:
                words.append(rng.choice(OBJECTS))
                nouns.append((si, ti))
            else:
                words.append(rng.choice(VERBS))
        sentences.append({
            "tokens": words,
            "types": [[[t.base, t.z] for t in ty] for _, ty in d.tokens],
            "cups": [list(c) for c in d.cups]})
    rng.shuffle(nouns)
    chained = nouns[:len(nouns) // 2]
    corefs = [sorted(map(list, chained[k:k + rng.randint(2, 3)]))
              for k in range(0, len(chained), 3)]
    return {"sentences": sentences, "corefs": [c for c in corefs if c]}


def inputs():
    """(family, name, parsed JSON value) of every corpus input."""
    for name in DOCUMENTS:
        yield "fixtures", name, read_json(FIXTURES / f"{name}.json")
    for name, (sentence, _) in sorted(BAD_CUPS.items()):
        yield "bad_cups", name, {"sentences": [sentence]}
    for seed in range(6):
        yield "chain", f"seed{seed}", {
            "tokens": chain_document(random.Random(seed), 3 + seed)}
        yield "entity", f"seed{seed}", {
            "tokens": entity_document(random.Random(seed), 2 + seed // 2)}
        yield "topic", f"seed{seed}", {"tokens": topic_text(
            random.Random(seed), (COOKING, PROGRAMMING)[seed % 2])}
    for seed in range(2):
        yield "spider", f"seed{seed}", {
            "tokens": chain_document(random.Random(seed), 2 + seed)
            + [["She", "reads", "herself"]]}
    yield "no_parse", "unknown_word", {"tokens": [["Alice", "zorbs"]]}
    yield "no_parse", "no_reduction", {"tokens": [["Alice", "Bob"]]}
    yield "no_parse", "over_cap", {"tokens": [["is"] * 13]}
    rng = random.Random(5)
    for k in range(8):
        yield "loopy", f"doc{k}", loopy_document(rng, 1 + k % 4)
    yield from workload_inputs()


def workload_inputs():
    """A bounded slice of the benchmark workloads' inputs for one seed,
    from the generators the benchmark runs."""
    for k, (tokens, _) in enumerate(workloads.two_topic_texts(
            random.Random(WORKLOAD_SEED), TOPIC_TEXTS)):
        yield "workload", f"two_topic{k}", {"tokens": tokens}
    rng = random.Random(WORKLOAD_SEED)
    for width in sorted(set(workloads.WideStoryTrain.WIDTHS)):
        yield "workload", f"wide_story{width}", {
            "tokens": workloads.wide_story(rng, width)}
    for name, cls in (("coref_chain", workloads.CorefChainDoc),
                      ("many_entity", workloads.ManyEntityDoc)):
        tokens, _, _ = cls.make_document(random.Random(WORKLOAD_SEED),
                                         cls.SENTENCES)
        yield "workload", name, {"tokens": tokens[:DOC_SENTENCES]}


def _error(exc: DiscocircError) -> str:
    return f"{type(exc).__name__} {exc.exit_code} {exc}"


def dumps(value, lex: Lexicon):
    """(kind, label, text) of every dump of one input, in a fixed order."""
    try:
        doc = ingest(value, lex)
    except DiscocircError as exc:
        yield "error", "ingest", _error(exc)
        return
    yield "document", "", json.dumps(document_to_json(doc))
    first_noun = next((w for sent in doc.sentences for w in sent.words
                       if lex.is_noun(w)), None)
    for rules in RULE_SETS:
        cfg = PipelineConfig(lexicon=lex)
        resolve_rewrites(list(rules), cfg)
        tag = ",".join(rules) or "none"
        try:
            split = apply_coordination(doc, cfg)
        except DiscocircError as exc:
            yield "error", tag, _error(exc)
            continue
        yield "coordinated", tag, json.dumps(document_to_json(split))
        reports = treeize(split, cfg)
        yield "trees_json", tag, json.dumps(
            [forest_to_json(rep.forest) for rep in reports])
        yield "trees_text", tag, "\n".join(
            dump_tree(root) for rep in reports for root in rep.forest)
        yield "removed_cups", tag, repr([rep.removed_cups
                                         for rep in reports])
        for noun_filter in FILTERS:
            cfg.min_noun_frequency = 2 if noun_filter == "min2" else None
            cfg.remove_nouns = [first_noun] \
                if noun_filter == "remove" and first_noun else []
            label = f"{tag}/{noun_filter}"
            td = diagrams(split, reports, cfg)
            yield "diagram", label, json.dumps(text_diagram_to_json(td))
            merged = {}
            for mode in ("shared", "foliated"):
                expanded = expand_frames(td, SandwichConfig(mode))
                yield "expanded", f"{label}/{mode}", json.dumps(
                    text_diagram_to_json(expanded))
                merged[mode] = append_merge_box(expanded)
            for ansatz, mode in CIRCUITS:
                where = (f"{label}/{ansatz.kind}/q{ansatz.qubits_per_wire}"
                         f"/l{ansatz.layers}/{mode}")
                try:
                    c = compile(merged[mode], ansatz, cap=cfg.max_qubits)
                except DiscocircError as exc:
                    yield "error", where, _error(exc)
                    continue
                yield "circuit_json", where, json.dumps(circuit_to_json(c))
                yield "circuit_text", where, dump_circuit(c)


def corpus_hashes() -> dict:
    """``{"<family>/<kind>": {"dumps": n, "sha256": hex}}`` over every
    dump of every input, each hashed with its input's name and label."""
    lex = Lexicon.builtin()
    hashes, counts = {}, {}
    for family, name, value in inputs():
        for kind, label, text in dumps(value, lex):
            key = f"{family}/{kind}"
            if key not in hashes:
                hashes[key], counts[key] = hashlib.sha256(), 0
            hashes[key].update(f"{name}/{label}\n{text}\n".encode())
            counts[key] += 1
    return {key: {"dumps": counts[key], "sha256": hashes[key].hexdigest()}
            for key in sorted(hashes)}


def test_corpus_matches_its_hashes():
    want = json.loads(HASHES.read_text(encoding="utf-8"))
    got = corpus_hashes()
    assert sum(entry["dumps"] for entry in got.values()) >= 5000
    moved = sorted(key for key in want.keys() | got.keys()
                   if want.get(key) != got.get(key))
    assert moved == [], f"corpus dumps moved: {moved}"


def test_paper_scale_circuit_matches_its_hashes():
    tokens = chain_document(random.Random(2), 1600)
    for ansatz, json_hash, text_hash in PAPER_SCALE:
        c = run({"tokens": tokens},
                PipelineConfig(ansatz=ansatz, max_qubits=10 ** 9))
        assert c.n_qubits == 1601
        assert hashlib.sha256(json.dumps(circuit_to_json(c)).encode()) \
            .hexdigest() == json_hash, ansatz
        assert hashlib.sha256(dump_circuit(c).encode()).hexdigest() \
            == text_hash, ansatz


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_corpus.py --write")
    logging.basicConfig(level=logging.ERROR)
    got = corpus_hashes()
    HASHES.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
    print(f"{sum(e['dumps'] for e in got.values())} dumps in {len(got)} "
          f"hashes written to {HASHES.relative_to(ROOT)}")
