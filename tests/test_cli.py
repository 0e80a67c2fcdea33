import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from discocirc.cli import main
from discocirc.errors import DiscocircError

FIXTURES = "tests/fixtures"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_dumps_document(runner):
    result = runner.invoke(main, ["parse", "--input",
                                  f"{FIXTURES}/treasure_hunt.json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["sentences"]) == 3
    assert [[0, 0], [1, 0]] in data["corefs"]


def test_parse_from_raw_tokens(runner, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"tokens": [["Alice", "reads", "books"]]}),
                    encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["sentences"][0]["cups"] == [[0, 1], [3, 4]]


def test_all_parses_dump(runner, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"tokens": [["Alice", "has", "a", "bike"]]}),
                    encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path),
                                  "--all-parses"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert "Alice has a bike" in data


@pytest.mark.parametrize("with_tokens", [False, True])
def test_all_parses_needs_a_tokens_document(runner, tmp_path, with_tokens):
    """Every command reads an interchange document's sentences, so
    ``--all-parses``, which parses tokens, refuses a document that has
    sentences, with or without tokens."""
    data = json.loads(Path(f"{FIXTURES}/reading.json").read_text("utf-8"))
    if with_tokens:
        data["tokens"] = [["Alice", "has", "a", "bike"]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path),
                                  "--all-parses"])
    assert result.exit_code == 2
    assert "Error: --all-parses needs a tokens document" in result.output
    assert "Traceback" not in result.output


def test_tree_text_output(runner):
    result = runner.invoke(main, ["tree", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--format", "text"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "1:reads [s]"


def test_tree_respects_rewrites(runner):
    result = runner.invoke(main, ["tree", "--input",
                                  f"{FIXTURES}/bike_rewrites.json",
                                  "--rewrites",
                                  "determiner,noun_modification",
                                  "--format", "text"])
    assert result.exit_code == 0
    assert "blue bike" in result.output
    assert ":a " not in result.output


def test_tree_json_and_dot_output(runner):
    args = ["tree", "--input", f"{FIXTURES}/reading.json", "--format"]
    result = runner.invoke(main, args + ["json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data[0][0]["word"] == "reads"
    assert [c["word"] for c in data[0][0]["children"]] == ["Alice", "books"]
    result = runner.invoke(main, args + ["dot"])
    assert result.exit_code == 0
    assert result.output.startswith("digraph pregroup_tree")
    assert "t1 -> t0;" in result.output


@pytest.mark.parametrize("args", [
    ["parse", "--format", "dot"],
    ["parse", "--format", "text"],
    ["parse", "--rewrites", "determiner"],
    ["parse", "--min-noun-frequency", "2"],
    ["parse", "--remove-nouns", "map"],
    ["tree", "--min-noun-frequency", "2"],
    ["tree", "--remove-nouns", "map"],
    ["diagram", "--format", "text"],
    ["circuit", "--format", "dot"],
], ids=" ".join)
def test_options_a_stage_ignores_are_usage_errors(runner, args):
    result = runner.invoke(main, args[:1] + [
        "--input", f"{FIXTURES}/treasure_hunt.json"] + args[1:])
    assert result.exit_code == 2
    assert "Traceback" not in result.output


def test_diagram_json_output(runner):
    result = runner.invoke(main, ["diagram", "--input",
                                  f"{FIXTURES}/treasure_hunt.json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert [s["word"] for s in data["states"]] == \
        ["Alice", "map", "clues", "treasure"]


def test_diagram_dot_output(runner):
    result = runner.invoke(main, ["diagram", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--format", "dot"])
    assert result.exit_code == 0
    assert result.output.startswith("digraph")


def test_circuit_output_and_out_file(runner, tmp_path):
    out = tmp_path / "circuit.json"
    result = runner.invoke(main, [
        "circuit", "--input", f"{FIXTURES}/treasure_hunt.json",
        "--ansatz", "sim4", "--qubits-per-wire", "1", "--layers", "1",
        "--out", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["n_qubits"] == 4
    assert data["outputs"] == [3]


def test_circuit_foliated_flag(runner):
    shared = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/treasure_hunt.json"])
    foliated = runner.invoke(main, ["circuit", "--input",
                                    f"{FIXTURES}/treasure_hunt.json",
                                    "--foliated"])
    assert shared.exit_code == foliated.exit_code == 0
    assert len(json.loads(foliated.output)["symbols"]) >= \
        len(json.loads(shared.output)["symbols"])


def test_batch_compiles_directory(runner, tmp_path):
    src = tmp_path / "docs"
    src.mkdir()
    for name in ("reading", "treasure_hunt"):
        src.joinpath(f"{name}.json").write_text(
            Path(f"{FIXTURES}/{name}.json").read_text(encoding="utf-8"),
            encoding="utf-8")
    out = tmp_path / "circuits"
    out.mkdir()
    result = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--batch", str(src), "--out", str(out)])
    assert result.exit_code == 0
    assert sorted(p.name for p in out.glob("*.circuit.json")) == \
        ["reading.circuit.json", "treasure_hunt.circuit.json"]


def test_batch_runs_twice_into_its_own_directory(runner, tmp_path):
    # without --out the circuits land next to the documents; the second
    # run must not read them as documents
    src = tmp_path / "docs"
    src.mkdir()
    src.joinpath("reading.json").write_text(
        Path(f"{FIXTURES}/reading.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    outputs = []
    for _ in range(2):
        result = runner.invoke(main, ["circuit", "--input",
                                      f"{FIXTURES}/reading.json",
                                      "--batch", str(src)])
        assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_text() for p in src.iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[1]) == ["reading.circuit.json", "reading.json"]


def test_format_error_exit_code(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"sentences": "nope"}', encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path)])
    assert result.exit_code == 2
    assert "FormatError" in result.output or "FormatError" in \
        (result.stderr if hasattr(result, "stderr") else "")


def test_malformed_cup_exit_code(runner, tmp_path):
    path = tmp_path / "cup.json"
    path.write_text(json.dumps({"sentences": [
        {"tokens": ["Alice"], "types": [[["n", 0]]], "cups": [[0]]}]}),
        encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path)])
    assert result.exit_code == 2
    assert "sentences[0].cups[0]" in result.output


BAD_CUPS = {
    # "Alice reads books" with a cup from the subject's n to the verb's s
    "illegal": ({"tokens": ["Alice", "reads", "books"],
                 "types": [[["n", 0]], [["n", 1], ["s", 0], ["n", -1]],
                           [["n", 0]]],
                 "cups": [[0, 2]]},
                "illegal cups ((0, 2),), crossings ()"),
    # two legal cups, n with n^r and s with s^r, that cross
    "crossing": ({"tokens": ["a", "b", "c"],
                  "types": [[["n", 0], ["s", 0]], [["n", 1]], [["s", 1]]],
                  "cups": [[0, 2], [1, 3]]},
                 "illegal cups (), crossings (((0, 2), (1, 3)),)")}


def write_bad_cups(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({"sentences": [BAD_CUPS[case][0]]}),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["parse", "tree", "diagram", "circuit"])
@pytest.mark.parametrize("case", sorted(BAD_CUPS))
def test_bad_cups_exit_code(runner, tmp_path, command, case):
    result = runner.invoke(main, [command, "--input",
                                  str(write_bad_cups(tmp_path, case))])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == \
        f"InvalidDiagram: sentence 0: {BAD_CUPS[case][1]}"
    assert "Traceback" not in result.output


def test_entry_point_exits_with_the_error_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "discocirc.cli", "circuit", "--input",
         str(write_bad_cups(tmp_path, "crossing"))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == \
        f"InvalidDiagram: sentence 0: {BAD_CUPS['crossing'][1]}\n"


def error_classes(cls=DiscocircError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


def test_exit_codes_match_the_readme_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {name: int(code) for name, code in re.findall(
        r"^\| `(\w+)` \| (\d+) \|", readme,
        re.MULTILINE)}
    assert table == {cls.__name__: cls.exit_code
                     for cls in error_classes()}



@pytest.mark.parametrize("command", ["parse", "tree", "diagram", "circuit"])
@pytest.mark.parametrize("text", ['{"sentences": [', "[1]"],
                         ids=["not JSON", "a list"])
def test_input_that_is_no_document_exit_code(runner, tmp_path, command,
                                              text):
    path = tmp_path / "broken.json"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, [command, "--input", str(path)])
    assert result.exit_code == 2
    assert "FormatError" in result.output
    if text != "[1]":
        assert str(path) in result.output


def test_batch_file_not_json_exit_code(runner, tmp_path):
    src = tmp_path / "docs"
    src.mkdir()
    (src / "a.json").write_text(
        Path(f"{FIXTURES}/reading.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    (src / "b.json").write_text("{", encoding="utf-8")
    result = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--batch", str(src)])
    assert result.exit_code == 2
    assert "FormatError" in result.output
    assert str(src / "b.json") in result.output


def test_lexicon_not_json_exit_code(runner, tmp_path):
    path = tmp_path / "lex.json"
    path.write_text("{", encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--lexicon", str(path)])
    assert result.exit_code == 2
    assert "FormatError" in result.output and str(path) in result.output


@pytest.mark.parametrize("text", ["{", '[{"name": "x"}]', "", None],
                         ids=["not JSON", "a list", "empty", "missing"])
def test_rule_file_that_is_no_rule_exit_code(runner, tmp_path, text):
    path = tmp_path / "rule.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["tree", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--rewrites", str(path)])
    assert result.exit_code == 2
    assert "FormatError" in result.output and str(path) in result.output


def test_rule_file_with_a_string_of_words_exit_code(runner, tmp_path):
    """``"match_words": "an"`` once matched the letters "a" and "n", and
    so removed the determiner "a"."""
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({"name": "det", "match_words": "an",
                                "match_types": [[["n", 0]]]}),
                    encoding="utf-8")
    result = runner.invoke(main, ["tree", "--input",
                                  f"{FIXTURES}/bike_rewrites.json",
                                  "--rewrites", str(path)])
    assert result.exit_code == 2
    assert result.output.strip() == (
        "FormatError: bad rule file: match_words must be null or a list "
        f"of strings (at {path})")


@pytest.mark.parametrize("option", ["--qubits-per-wire", "--layers"])
def test_count_options_reject_zero(runner, option):
    result = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/reading.json", option, "0"])
    assert result.exit_code == 2
    assert "Invalid value" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["diagram", "--min-noun-frequency", "-1"],
    ["diagram", "--min-noun-frequency", "0"],
    ["circuit", "--min-noun-frequency", "0"],
    ["circuit", "--seed", "-1"]], ids=["diagram-min-noun-frequency--1",
                                       "diagram-min-noun-frequency-0",
                                       "circuit-min-noun-frequency-0",
                                       "circuit-seed--1"])
def test_integer_options_below_their_floor_are_usage_errors(runner, args):
    result = runner.invoke(main, args + ["--input",
                                         f"{FIXTURES}/reading.json"])
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output and args[1] in result.output


def test_no_parse_exit_code(runner, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"tokens": [["Alice", "Alice"]]}),
                    encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path)])
    assert result.exit_code == 3


def test_cap_exit_code(runner):
    result = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/treasure_hunt.json",
                                  "--qubits-per-wire", "6"])
    assert result.exit_code == 4


def test_max_qubits_lifts_the_compile_cap(runner):
    # four wires at five qubits each: 20 qubits, past the default cap
    args = ["circuit", "--input", f"{FIXTURES}/treasure_hunt.json",
            "--qubits-per-wire", "5"]
    assert runner.invoke(main, args).exit_code == 4
    assert runner.invoke(main, args + ["--max-qubits", "19"]).exit_code == 4
    result = runner.invoke(main, args + ["--max-qubits", "20"])
    assert result.exit_code == 0
    assert json.loads(result.output)["n_qubits"] == 20


@pytest.mark.parametrize("name", ["reading", "hard_reading", "music_piano"])
def test_circuit_of_a_document_filtered_to_no_wires(runner, tmp_path, caplog,
                                                     name):
    # no noun of these is mentioned twice, so the filter removes them all
    out = tmp_path / "circuit.json"
    result = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/{name}.json",
                                  "--min-noun-frequency", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text()) == {
        "n_qubits": 0, "gates": [], "postselect": [], "symbols": {},
        "outputs": []}
    assert "no wires to merge" in caplog.text


def test_train_refuses_a_circuit_of_no_qubits(runner, tmp_path):
    # the noun filter empties reading.json: its circuit has no qubits, so it
    # reads out none and no label can be read from it
    circuit = tmp_path / "circuit.json"
    assert runner.invoke(main, ["circuit", "--input",
                                f"{FIXTURES}/reading.json",
                                "--min-noun-frequency", "2",
                                "--out", str(circuit)]).exit_code == 0
    dataset = tmp_path / "data.jsonl"
    dataset.write_text("".join(
        json.dumps({"label": i % 2, "circuit_path": circuit.name}) + "\n"
        for i in range(5)), encoding="utf-8")
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "1"])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == \
        "FormatError: 0-qubit readout, not 1 (at line 1)"


def write_dataset(runner, tmp_path):
    """A tiny JSON-lines dataset built through the circuit stage."""
    circuit_json = runner.invoke(main, [
        "circuit", "--input", f"{FIXTURES}/reading.json",
        "--ansatz", "sim4"]).output
    dataset = tmp_path / "data.jsonl"
    with open(dataset, "w", encoding="utf-8") as f:
        for i in range(5):
            f.write(json.dumps({"text_id": f"t{i}", "label": i % 2,
                                "circuit": json.loads(circuit_json)}) + "\n")
    return dataset


def test_train_command(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    out = tmp_path / "history.csv"
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "2", "--batch-size", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 3


def test_train_writes_its_parameters(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    params = tmp_path / "params.json"
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "2", "--batch-size", "2",
                                  "--params-out", str(params)])
    assert result.exit_code == 0
    written = json.loads(params.read_text())
    symbols = json.loads(dataset.read_text().splitlines()[0])[
        "circuit"]["symbols"]
    assert sorted(written) == sorted(symbols)
    assert written != symbols  # two epochs moved them


def test_train_unbound_symbol_exit_code(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    for record in records:
        record["circuit"]["symbols"].popitem()
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records),
                       encoding="utf-8")
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "1"])
    assert result.exit_code == 5
    assert "UnboundSymbol" in result.output


def test_train_malformed_circuit_exit_code(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    # a negative qubit would otherwise wrap around to the last one
    records[0]["circuit"]["gates"][0]["qubits"] = [-1]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records),
                       encoding="utf-8")
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "1"])
    assert result.exit_code == 2
    assert "FormatError" in result.output


def test_train_non_numeric_param_exit_code(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    # a list parameter used to load and then fail in the simulator
    gates = records[1]["circuit"]["gates"]
    i = next(k for k, g in enumerate(gates) if "param" in g)
    gates[i]["param"] = [1]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records),
                       encoding="utf-8")
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "1"])
    assert result.exit_code == 2
    assert "FormatError" in result.output and f"gates[{i}]" in result.output


MALFORMED_LINES = {
    "not JSON": lambda record: json.dumps(record)[:-1],
    "no label": lambda record: json.dumps(
        {k: v for k, v in record.items() if k != "label"}),
    "no circuit": lambda record: json.dumps(
        {k: v for k, v in record.items() if k != "circuit"}),
    "label 2": lambda record: json.dumps(dict(record, label=2)),
    "circuit 5": lambda record: json.dumps(dict(record, circuit=5)),
    "circuit a list": lambda record: json.dumps(dict(record, circuit=[])),
    "circuit_path missing": lambda record: json.dumps(
        {"label": 0, "circuit_path": "missing.json"}),
    # the dataset itself: JSON lines are no single JSON value
    "circuit_path not JSON": lambda record: json.dumps(
        {"label": 0, "circuit_path": "data.jsonl"}),
    # a binary label needs a 1-qubit readout; without outputs it is every
    # qubit not postselected
    "two outputs": lambda record: json.dumps(dict(
        record, circuit=dict(record["circuit"], outputs=[0, 1]))),
    "no outputs, no postselection": lambda record: json.dumps(dict(
        record, circuit=dict(record["circuit"], outputs=[], postselect=[]))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
def test_train_malformed_dataset_line_exit_code(runner, tmp_path, case):
    dataset = write_dataset(runner, tmp_path)
    lines = dataset.read_text().splitlines()
    lines[2] = MALFORMED_LINES[case](json.loads(lines[2]))
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "1"])
    assert result.exit_code == 2
    assert "FormatError" in result.output and "line 3" in result.output


@pytest.mark.parametrize("case,message", [
    ("directory", "cannot read: Is a directory"),
    ("latin-1", "not UTF-8: 'utf-8' codec can't decode byte 0xe9 in "
                "position 0: invalid continuation byte")],
    ids=["directory", "latin-1"])
def test_train_unreadable_dataset_exit_code(runner, tmp_path, case,
                                            message):
    dataset = tmp_path / "data"
    if case == "directory":
        dataset.mkdir()
    else:
        dataset.write_bytes("é\n".encode("latin-1"))
    result = runner.invoke(main, ["train", "--input", str(dataset)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"FormatError: {message} (at {dataset})"


def test_train_gradient_choices_are_the_simulators(runner, tmp_path):
    from discocirc.sim import GRADIENT_METHODS
    [option] = [p for p in main.commands["train"].params
                if p.name == "gradient"]
    assert tuple(option.type.choices) == GRADIENT_METHODS
    dataset = write_dataset(runner, tmp_path)
    for bad in ("bogus", "finite_diff"):
        result = runner.invoke(main, ["train", "--input", str(dataset),
                                      "--gradient", bad])
        assert result.exit_code == 2


def test_circuit_ansatz_choices_are_the_compilers():
    from discocirc.ansatz import BLOCKS
    [option] = [p for p in main.commands["circuit"].params
                if p.name == "ansatz_kind"]
    assert tuple(option.type.choices) == tuple(BLOCKS)


def test_rewrites_help_names_the_builtin_rules():
    from discocirc.rewrite import RULES
    for command in ("tree", "diagram", "circuit"):
        [option] = [p for p in main.commands[command].params
                    if p.name == "rewrites"]
        names = re.search(r"\((.*)\)", option.help).group(1)
        assert names.split(", ") == ["coordination", *RULES]


def test_train_refuses_an_empty_dataset(runner, tmp_path):
    dataset = tmp_path / "empty.jsonl"
    dataset.write_text("")
    result = runner.invoke(main, ["train", "--input", str(dataset)])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == \
        f"FormatError: no records (at {dataset})"


def test_train_command_adjoint_matches_parameter_shift(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    histories = {}
    for method in ("adjoint", "parameter_shift"):
        out = tmp_path / f"{method}.csv"
        result = runner.invoke(main, ["train", "--input", str(dataset),
                                      "--epochs", "2", "--batch-size", "2",
                                      "--gradient", method,
                                      "--out", str(out)])
        assert result.exit_code == 0
        histories[method] = [[float(x) for x in line.split(",")]
                             for line in out.read_text().split()[1:]]
    # both gradients are exact, so the training runs agree
    assert np.allclose(histories["adjoint"], histories["parameter_shift"],
                       atol=1e-6)


def test_format_error_names_its_location_once(runner, tmp_path):
    dataset = write_dataset(runner, tmp_path)
    lines = dataset.read_text().splitlines()
    lines[0] = MALFORMED_LINES["no circuit"](json.loads(lines[0]))
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  "--epochs", "1"])
    assert result.exit_code == 2
    assert result.output.strip() == ('FormatError: record has neither '
                                      '"circuit" nor "circuit_path" '
                                      '(at line 1)')


@pytest.mark.parametrize("all_parses", [False, True])
@pytest.mark.parametrize("tokens,where", [
    (5, "tokens"), ("Alice", "tokens"), (["Alice reads books"], "tokens[0]"),
    ([["Alice", "reads", "books"], ["Alice", 3]], "tokens[1][1]")])
def test_raw_tokens_that_are_no_token_lists_exit_code(runner, tmp_path,
                                                       tokens, where,
                                                       all_parses):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path)]
                           + ["--all-parses"] * all_parses)
    assert result.exit_code == 2
    assert "FormatError" in result.output
    assert f"(at {where})" in result.output


@pytest.mark.parametrize("option,value", [
    ("--epochs", "0"), ("--batch-size", "0"), ("--learning-rate", "nan"),
    ("--learning-rate", "inf"), ("--learning-rate", "-0.1"),
    ("--seed", "-1")])
def test_train_rejects_bad_options(runner, tmp_path, option, value):
    dataset = write_dataset(runner, tmp_path)
    result = runner.invoke(main, ["train", "--input", str(dataset),
                                  option, value])
    assert result.exit_code == 2
    assert "Invalid value" in result.output and option in result.output


@pytest.mark.parametrize("command,target", [
    (["circuit", "--out", "{missing}/a.json"], "{missing}/a.json"),
    (["diagram", "--out", "{missing}/a.json"], "{missing}/a.json"),
    (["circuit", "--batch", "{docs}", "--out", "{missing}"],
     "{missing}/reading.circuit.json"),
    (["train", "--epochs", "1", "--out", "{missing}/h.csv"],
     "{missing}/h.csv"),
    (["train", "--epochs", "1", "--params-out", "{missing}/p.json"],
     "{missing}/p.json")])
def test_unwritable_output_exit_code(runner, tmp_path, monkeypatch, command,
                                    target):
    trained = []
    monkeypatch.setattr("discocirc.cli.train",
                        lambda *args: trained.append(args))
    docs = tmp_path / "docs"
    docs.mkdir()
    docs.joinpath("reading.json").write_text(
        Path(f"{FIXTURES}/reading.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    source = write_dataset(runner, tmp_path) if command[0] == "train" \
        else f"{FIXTURES}/reading.json"
    paths = {"missing": tmp_path / "missing" / "dir", "docs": docs}
    args = [arg.format(**paths) for arg in command]
    result = runner.invoke(main, args[:1] + ["--input", str(source)]
                           + args[1:])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == (
        "FormatError: cannot write: No such file or directory "
        f"(at {target.format(**paths)})")
    assert trained == []  # the target is checked before training
