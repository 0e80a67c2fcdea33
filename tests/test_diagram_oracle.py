"""``compile`` against the semantic oracle: the distribution and success
probability ``simulate`` reads off a compiled circuit equal those of the
text diagram contracted wire by wire (``util.diagram_distribution``), on
the document fixtures and the corpus's token documents, under both
ansatz kinds, one or two qubits per wire and one or two layers.  The
corpus pins the circuits' bytes; this pins what they compute."""

from __future__ import annotations

import itertools
import logging

import numpy as np
import pytest

from discocirc.ansatz import AnsatzConfig, append_merge_box, compile
from discocirc.errors import CapExceeded, DiscocircError
from discocirc.ingest import Lexicon
from discocirc.pipeline import PipelineConfig, diagrams, ingest, treeize
from discocirc.rewrite import builtin_rule
from discocirc.sandwich import SandwichConfig, expand_frames
from discocirc.sim import simulate
from test_corpus import inputs
from util import diagram_distribution

FAMILIES = ("fixtures", "chain", "entity", "topic", "spider", "loopy")
ANSATZE = [AnsatzConfig(kind, q, layers, share_parameters=q == layers)
           for kind, q, layers in itertools.product(("iqp", "sim4"), (1, 2),
                                                    (1, 2))]


def expanded_documents():
    """(name, merged expanded text diagram) per corpus input of
    ``FAMILIES``, the sandwich mode and rule set alternating."""
    lex = Lexicon.builtin()
    out = []
    for k, (family, name, value) in enumerate(
            i for i in inputs() if i[0] in FAMILIES):
        cfg = PipelineConfig(lexicon=lex)
        if k % 2:
            cfg.rewrites = [builtin_rule("determiner"),
                            builtin_rule("noun_modification")]
        try:
            doc = ingest(value, lex)
            td = diagrams(doc, treeize(doc, cfg), cfg)
        except DiscocircError:
            continue
        mode = ("shared", "foliated")[k // 2 % 2]
        merged = append_merge_box(expand_frames(td, SandwichConfig(mode)))
        if merged.states:
            out.append((f"{family}/{name}/{mode}", merged))
    return out


@pytest.fixture(scope="module")
def documents():
    logging.disable(logging.WARNING)
    try:
        return expanded_documents()
    finally:
        logging.disable(logging.NOTSET)


@pytest.mark.parametrize("ansatz", ANSATZE, ids=lambda a: (
    f"{a.kind}-q{a.qubits_per_wire}-l{a.layers}"))
def test_compiled_circuits_compute_their_diagrams(documents, ansatz):
    compared = 0
    for name, td in documents:
        try:
            c = compile(td, ansatz)
        except CapExceeded:
            continue
        dist, success = simulate(c, c.symbols)
        want, want_success = diagram_distribution(td, ansatz, c.symbols)
        assert abs(success - want_success) < 1e-12, name
        assert np.max(np.abs(dist - want)) < 1e-12, name
        compared += 1
    assert compared >= 10
