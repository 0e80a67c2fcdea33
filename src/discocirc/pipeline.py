"""Stage orchestration: document in, trees/diagrams/circuits out.

Each stage consumes the previous stage's artifact, so the command-line
front end can stop anywhere and dump the intermediate.  The stages are:
ingest -> trees (with rewrites) -> sentence diagrams -> document diagram
-> frame expansion -> circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ansatz import (QUBIT_CAP, AnsatzConfig, Circuit, append_merge_box,
                     compile)
from .compose import TextDiagram, compose_document
from .frames import _lower_sentence, min_frequency_filter
from .ingest import (CorefMap, Document, Lexicon, check_tokens,
                     load_document, parse_text)
from .rewrite import (RewriteRule, _rewrite_shape, _Rules, _spaced,
                      builtin_rule, coordination_rewrite, load_rule)
from .sandwich import SandwichConfig, expand_frames
from .trees import TreeBuildReport, build_trees


@dataclass
class PipelineConfig:
    lexicon: Lexicon = field(default_factory=Lexicon.builtin)
    rewrites: list[RewriteRule] = field(default_factory=list)
    coordination: bool = False
    min_noun_frequency: int | None = None
    remove_nouns: list[str] = field(default_factory=list)
    sandwich: SandwichConfig = field(default_factory=SandwichConfig)
    ansatz: AnsatzConfig = field(default_factory=AnsatzConfig)
    # compile-side qubit cap; the simulator keeps its own QUBIT_CAP
    max_qubits: int = QUBIT_CAP


def resolve_rewrites(names: list[str], cfg: PipelineConfig) -> None:
    """Fill cfg.rewrites/coordination from rule names or rule-file paths."""
    for name in names:
        if name == "coordination":
            cfg.coordination = True
            continue
        try:
            cfg.rewrites.append(builtin_rule(name))
        except KeyError:
            cfg.rewrites.append(load_rule(name))


def ingest(source, lex: Lexicon) -> Document:
    """Load an interchange document from the parsed JSON value, or parse
    raw token lists with the mini parser when the value carries 'tokens'
    instead of 'sentences'."""
    if isinstance(source, dict) and "sentences" not in source \
            and "tokens" in source:
        return parse_text(check_tokens(source["tokens"]), lex,
                          source.get("text"))
    doc = load_document(source)
    complete_chains(doc, lex)
    return doc


def complete_chains(doc: Document, lex: Lexicon) -> None:
    """Give every unchained noun token its own singleton chain, so each
    noun owns a wire after composition."""
    chained = doc.corefs.mentions()
    for si, sent in enumerate(doc.sentences):
        for ti, (word, _) in enumerate(sent.tokens):
            if lex.is_noun(word) and (si, ti) not in chained:
                doc.corefs.chains.append([(si, ti)])


def apply_coordination(doc: Document, cfg: PipelineConfig) -> Document:
    if not cfg.coordination:
        return doc
    sentences = []
    coref = doc.corefs
    index = 0
    for sent in doc.sentences:
        parts, coref = coordination_rewrite(sent, coref, index)
        sentences.extend(parts)
        index += len(parts)
    return Document(sentences, coref, doc.source_text)


def treeize(doc: Document, cfg: PipelineConfig) -> list[TreeBuildReport]:
    """Build (``build_trees``) and rewrite one tree forest per sentence:
    the rules rewrite the word-free forest of the sentence's shape, and
    the sentence's own forest is built when read."""
    rules = _Rules(cfg.rewrites)
    worded = [(r.match_words, _spaced(r)) for r in rules
              if r.match_words is not None]
    reports = []
    for sent in doc.sentences:
        report = build_trees(sent)
        if rules:
            words = report._words
            report._shape = _rewrite_shape(report._shape, rules, tuple([
                words if spaced
                else tuple([i for i, w in enumerate(words) if w in match])
                for match, spaced in worded]))
        reports.append(report)
    return reports


def removed_mentions(doc: Document, cfg: PipelineConfig) -> set:
    removed = set()
    if cfg.min_noun_frequency is not None:
        removed |= min_frequency_filter(doc.corefs, cfg.min_noun_frequency)
    if cfg.remove_nouns:
        drop = set(cfg.remove_nouns)
        for si, sent in enumerate(doc.sentences):
            for ti, (word, _) in enumerate(sent.tokens):
                if word in drop:
                    removed.add((si, ti))
    return removed


def diagrams(doc: Document, reports: list[TreeBuildReport],
             cfg: PipelineConfig) -> TextDiagram:
    """Lower tree forests to sentence diagrams and compose the document.
    A report's word-free shape is lowered once per noun and removed
    tokens, and ``compose_document`` puts the sentence's words on it."""
    removed = removed_mentions(doc, cfg)
    coref = doc.corefs
    # an empty chain is dropped too, which renumbers the later chains
    if removed or not all(coref.chains):
        coref = CorefMap([[m for m in chain if m not in removed]
                          for chain in coref.chains
                          if any(m not in removed for m in chain)])
    removed_in: dict[int, set] = {}
    for si, ti in removed:
        removed_in.setdefault(si, set()).add(ti)
    sentences = []
    # Lexicon.is_noun, inlined
    noun_words, pronoun_words = cfg.lexicon.nouns, cfg.lexicon.pronouns
    for si, (sent, report) in enumerate(zip(doc.sentences, reports)):
        nouns = tuple([ti for ti, (word, _) in enumerate(sent.tokens)
                       if word in noun_words or word in pronoun_words])
        remove = tuple(sorted(removed_in[si])) if si in removed_in else ()
        words = report._words
        sentences.append((_lower_sentence(report._shape, words, nouns,
                                          remove), words, si))
    return compose_document(sentences, coref)


def circuit(td: TextDiagram, cfg: PipelineConfig) -> Circuit:
    return compile(append_merge_box(expand_frames(td, cfg.sandwich)),
                   cfg.ansatz, cap=cfg.max_qubits)


def run(source, cfg: PipelineConfig, stage: str = "circuit"):
    """Run the pipeline on the parsed JSON value ``source`` up to
    ``stage`` and return that stage's artifact."""
    doc = ingest(source, cfg.lexicon)
    if stage == "parse":
        return doc
    doc = apply_coordination(doc, cfg)
    reports = treeize(doc, cfg)
    if stage == "tree":
        return reports
    td = diagrams(doc, reports, cfg)
    del doc, reports  # no later stage reads them
    if stage == "diagram":
        return td
    if stage == "circuit":
        td = append_merge_box(expand_frames(td, cfg.sandwich))
        return compile(td, cfg.ansatz, cap=cfg.max_qubits)
    raise ValueError(f"unknown stage {stage!r}")
