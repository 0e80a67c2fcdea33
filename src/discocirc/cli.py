"""Command-line front end for the text-to-circuit pipeline."""

from __future__ import annotations

import json
import logging
import math
import sys
from pathlib import Path

import click

from .ansatz import QUBIT_CAP, AnsatzConfig, circuit_to_json, dump_circuit
from .compose import text_diagram_to_dot, text_diagram_to_json
from .errors import (CapExceeded, DiscocircError, FormatError, NoParse,
                     UnboundSymbol, ZeroNorm)
from .ingest import (Lexicon, check_tokens, document_to_json,
                     lexicon_parse, read_json)
from .pipeline import PipelineConfig, resolve_rewrites, run
from .sandwich import SandwichConfig
from .sim import GRADIENT_METHODS, TrainConfig, load_dataset, train
from .trees import dump_tree, forest_to_json, tree_to_dot

log = logging.getLogger(__name__)

EXIT_FORMAT = 2
EXIT_NO_PARSE = 3
EXIT_CAP = 4
EXIT_TRAIN = 5


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, FormatError):
        return EXIT_FORMAT
    if isinstance(exc, NoParse):
        return EXIT_NO_PARSE
    if isinstance(exc, CapExceeded):
        return EXIT_CAP
    if isinstance(exc, (ZeroNorm, UnboundSymbol)):
        return EXIT_TRAIN
    return 1


def _fail(exc: Exception):
    # a FormatError's message already ends with its location
    click.echo(f"{type(exc).__name__}: {exc}", err=True)
    sys.exit(_exit_code(exc))


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _common(*formats):
    """--input, --lexicon, --out and a --format taking ``formats``."""
    def decorate(f):
        f = click.option("--input", "input_path", required=True,
                         type=click.Path(exists=True),
                         help="Interchange JSON document.")(f)
        f = click.option("--lexicon", "lexicon_path",
                         type=click.Path(exists=True),
                         help="Lexicon JSON; defaults to the built-in one.")(f)
        f = click.option("--format", "fmt", type=click.Choice(formats),
                         default="json")(f)
        f = click.option("--out", type=click.Path(), default=None,
                         help="Write the artifact here instead of stdout.")(f)
        return f
    return decorate


def _rewrites(f):
    return click.option("--rewrites", default="",
                        help="Comma-separated rule names or rule-file paths "
                             "(coordination, determiner, auxiliary, "
                             "noun_modification).")(f)


def _filters(f):
    f = click.option("--min-noun-frequency", type=int, default=None,
                     help="Drop chains with fewer mentions than this.")(f)
    f = click.option("--remove-nouns", default="",
                     help="Comma-separated noun words to drop.")(f)
    return f


def _config(lexicon_path, rewrites="", min_noun_frequency=None,
            remove_nouns="", **extra) -> PipelineConfig:
    lex = Lexicon.load(lexicon_path) if lexicon_path else Lexicon.builtin()
    cfg = PipelineConfig(lexicon=lex, **extra)
    resolve_rewrites([r for r in rewrites.split(",") if r], cfg)
    cfg.min_noun_frequency = min_noun_frequency
    cfg.remove_nouns = [w for w in remove_nouns.split(",") if w]
    return cfg


@click.group()
@click.option("--verbose", is_flag=True, help="Log per-stage progress.")
def main(verbose):
    """Compile text documents into parameterised quantum circuits."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@_common("json")
@click.option("--all-parses", is_flag=True,
              help="Dump every parse the mini parser finds.")
def parse(input_path, lexicon_path, fmt, out, all_parses):
    """Ingest (or mini-parse) a document and dump it."""
    try:
        cfg = _config(lexicon_path)
        raw = read_json(input_path)
        if all_parses and isinstance(raw, dict) and "tokens" in raw:
            parses = {
                " ".join(tokens): [
                    {"types": [str(ty) for _, ty in d.tokens],
                     "cups": [list(c) for c in d.cups]}
                    for d in lexicon_parse(tokens, cfg.lexicon,
                                           all_parses=True)
                ]
                for tokens in check_tokens(raw["tokens"])
            }
            _emit(json.dumps(parses, indent=1), out)
            return
        doc = run(raw, cfg, stage="parse")
        _emit(json.dumps(document_to_json(doc), indent=1), out)
    except DiscocircError as exc:
        _fail(exc)


@main.command()
@_common("json", "text", "dot")
@_rewrites
def tree(input_path, lexicon_path, fmt, out, rewrites):
    """Build pregroup trees and dump the forest."""
    try:
        cfg = _config(lexicon_path, rewrites)
        reports = run(read_json(input_path), cfg, stage="tree")
        if fmt == "text":
            text = "\n".join(dump_tree(root)
                             for rep in reports for root in rep.forest)
        elif fmt == "dot":
            text = "\n".join(tree_to_dot(rep.forest) for rep in reports)
        else:
            text = json.dumps(
                [forest_to_json(rep.forest) for rep in reports], indent=1)
        _emit(text, out)
    except DiscocircError as exc:
        _fail(exc)


@main.command()
@_common("json", "dot")
@_rewrites
@_filters
def diagram(input_path, lexicon_path, fmt, out, rewrites, min_noun_frequency,
            remove_nouns):
    """Compose the document-level diagram and dump it."""
    try:
        cfg = _config(lexicon_path, rewrites, min_noun_frequency,
                      remove_nouns)
        td = run(read_json(input_path), cfg, stage="diagram")
        if fmt == "dot":
            text = text_diagram_to_dot(td)
        else:
            text = json.dumps(text_diagram_to_json(td), indent=1)
        _emit(text, out)
    except DiscocircError as exc:
        _fail(exc)


def _circuit_options(f):
    f = click.option("--ansatz", "ansatz_kind",
                     type=click.Choice(["iqp", "sim4"]), default="iqp")(f)
    f = click.option("--qubits-per-wire", type=click.IntRange(min=1),
                     default=1)(f)
    f = click.option("--layers", type=click.IntRange(min=1), default=1)(f)
    f = click.option("--no-share", is_flag=True,
                     help="Give every box occurrence its own parameters.")(f)
    f = click.option("--foliated", is_flag=True,
                     help="Independent sandwich unitaries per layer.")(f)
    f = click.option("--seed", type=int, default=0)(f)
    f = click.option("--max-qubits", type=click.IntRange(min=1),
                     default=QUBIT_CAP, show_default=True,
                     help="Refuse circuits wider than this (exit 4). The "
                          "simulator and training keep their own cap.")(f)
    return f


@main.command()
@_common("json", "text")
@_rewrites
@_filters
@_circuit_options
@click.option("--batch", type=click.Path(exists=True, file_okay=False),
              default=None, help="Compile every *.json in a directory.")
def circuit(input_path, lexicon_path, fmt, out, rewrites, min_noun_frequency,
            remove_nouns, ansatz_kind, qubits_per_wire, layers, no_share,
            foliated, seed, max_qubits, batch):
    """Compile the document into a parameterised circuit."""
    try:
        cfg = _config(
            lexicon_path, rewrites, min_noun_frequency, remove_nouns,
            sandwich=SandwichConfig("foliated" if foliated else "shared"),
            ansatz=AnsatzConfig(ansatz_kind, qubits_per_wire, layers,
                                not no_share, seed),
            max_qubits=max_qubits)

        def one(path):
            c = run(read_json(path), cfg, stage="circuit")
            return dump_circuit(c) if fmt == "text" \
                else json.dumps(circuit_to_json(c), indent=1)

        if batch:
            paths = sorted(Path(batch).glob("*.json"))
            artifacts = [one(path) for path in paths]
            for path, text in zip(paths, artifacts):
                target = Path(out or batch) / (path.stem + ".circuit.json")
                target.write_text(text + "\n", encoding="utf-8")
                log.info("compiled %s -> %s", path.name, target.name)
        else:
            _emit(one(input_path), out)
    except DiscocircError as exc:
        _fail(exc)


def _finite_rate(ctx, param, value):
    # FloatRange lets NaN and infinity through
    if not 0 <= value < math.inf:
        raise click.BadParameter("must be a finite number >= 0")
    return value


@main.command(name="train")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True),
              help="JSON-lines dataset of circuits and labels.")
@click.option("--epochs", type=click.IntRange(min=1), default=60)
@click.option("--batch-size", type=click.IntRange(min=1), default=10)
@click.option("--learning-rate", type=float, default=0.01,
              callback=_finite_rate)
@click.option("--gradient", type=click.Choice(GRADIENT_METHODS),
              default="parameter_shift")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None,
              help="History CSV path (default stdout).")
@click.option("--params-out", type=click.Path(), default=None,
              help="Write the trained parameters here as JSON.")
def train_cmd(input_path, epochs, batch_size, learning_rate, gradient,
              seed, out, params_out):
    """Train shared circuit parameters on a labelled dataset."""
    try:
        dataset = load_dataset(input_path)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size,
                          learning_rate=learning_rate, gradient=gradient,
                          seed=seed)
        params, history = train(dataset, cfg)
        if params_out:
            Path(params_out).write_text(
                json.dumps(params, indent=1) + "\n", encoding="utf-8")
        history.to_csv(out)
    except (DiscocircError, ValueError) as exc:
        if isinstance(exc, DiscocircError):
            _fail(exc)
        click.echo(f"training failed: {exc}", err=True)
        sys.exit(EXIT_TRAIN)


if __name__ == "__main__":
    main()
