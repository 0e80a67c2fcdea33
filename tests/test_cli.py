import json

import numpy as np
import pytest
from click.testing import CliRunner

from discocirc.cli import main

FIXTURES = "tests/fixtures"


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
            open(f"{FIXTURES}/{name}.json", encoding="utf-8").read(),
            encoding="utf-8")
    out = tmp_path / "circuits"
    out.mkdir()
    result = runner.invoke(main, ["circuit", "--input",
                                  f"{FIXTURES}/reading.json",
                                  "--batch", str(src), "--out", str(out)])
    assert result.exit_code == 0
    assert sorted(p.name for p in out.glob("*.circuit.json")) == \
        ["reading.circuit.json", "treasure_hunt.circuit.json"]


def test_format_error_exit_code(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"sentences": "nope"}', encoding="utf-8")
    result = runner.invoke(main, ["parse", "--input", str(path)])
    assert result.exit_code == 2
    assert "FormatError" in result.output or "FormatError" in \
        (result.stderr if hasattr(result, "stderr") else "")


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
