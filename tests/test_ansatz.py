import json

import numpy as np
import pytest

from discocirc.ansatz import (AnsatzConfig, Circuit, Gate, append_merge_box,
                              circuit_from_json, circuit_to_json, compile,
                              dump_circuit, iqp_block, sim4_block)
from discocirc.compose import TextDiagram
from discocirc.errors import CapExceeded, FormatError, UnexpandedFrame
from discocirc.frames import (Box, Frame, Identity, NounState, Par,
                              SentenceDiagram)
from discocirc.ingest import CorefMap
from discocirc.pipeline import PipelineConfig, run
from discocirc.sandwich import expand_frames
from util import block_symbol_count, compose_spelled


def simple_diagram(n_wires=2, box_name="loves"):
    nouns = [NounState(f"w{i}", 0, i) for i in range(n_wires)]
    body = Box(box_name, tuple(range(n_wires)))
    sd = SentenceDiagram(nouns, body)
    return compose_spelled([sd], CorefMap([[(0, i)]
                                          for i in range(n_wires)]))


def symbols(gates):
    return [g.param for g in gates if g.param is not None]


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("L", range(1, 4))
def test_iqp_block_shape(n, L):
    count = block_symbol_count("iqp", n, L)
    assert count == L * (n - 1)
    gates = iqp_block(n, L, [f"s{i}" for i in range(count)])
    assert sum(g.name == "H" for g in gates) == L * n
    assert sum(g.name == "CRz" for g in gates) == L * (n - 1)
    assert symbols(gates) == [f"s{i}" for i in range(count)]


def test_iqp_single_qubit_uses_rotation_triple():
    gates = iqp_block(1, 2, ["a", "b", "c"])
    assert [g.name for g in gates] == ["Rx", "Rz", "Rx"]
    assert block_symbol_count("iqp", 1, 2) == 3


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("L", range(1, 4))
def test_sim4_block_shape(n, L):
    count = block_symbol_count("sim4", n, L)
    assert count == L * (3 * n - 1)
    gates = sim4_block(n, L, [f"s{i}" for i in range(count)])
    assert sum(g.name == "Rx" for g in gates) == L * n
    assert sum(g.name == "Rz" for g in gates) == L * n
    assert sum(g.name == "CRx" for g in gates) == L * (n - 1)


def test_crz_gates_touch_adjacent_qubits():
    gates = iqp_block(4, 1, ["a", "b", "c"])
    pairs = [g.qubits for g in gates if g.name == "CRz"]
    assert pairs == [(0, 1), (1, 2), (2, 3)]


def test_compile_two_wire_box_sim4():
    td = simple_diagram()
    c = compile(td, AnsatzConfig("sim4", 1, 1))
    box_gates = [g for g in c.gates if g.param and "loves" in g.param]
    assert len(box_gates) == 5  # 2 Rx + 2 Rz + 1 CRx
    assert c.n_qubits == 2
    assert c.outputs == [0, 1]


def test_symbol_naming_scheme():
    td = simple_diagram()
    c = compile(td, AnsatzConfig("sim4", 1, 1))
    assert "loves__2__0" in c.symbols
    assert "w0__1__0" in c.symbols


def test_shared_parameters_reuse_symbols():
    nouns = [NounState("w", 0, 0)]
    body = Box("f", (0,))
    sd = SentenceDiagram(nouns, body)
    sd2 = SentenceDiagram([NounState("w", 1, 0)], Box("f", (0,)))
    td = compose_spelled(
        [sd, sd2], CorefMap([[(0, 0)], [(1, 0)]]))
    shared = compile(td, AnsatzConfig("sim4", 1, 1, share_parameters=True))
    solo = compile(td, AnsatzConfig("sim4", 1, 1, share_parameters=False))
    assert len(shared.symbols) < len(solo.symbols)
    assert any(".1__" in s for s in solo.symbols)


@pytest.mark.parametrize("kind", ["iqp", "sim4"])
@pytest.mark.parametrize("q", [1, 2])
def test_shared_symbols_follow_name_and_width(kind, q):
    # "f" on one wire, on two wires, then on one wire again
    sds = [SentenceDiagram([NounState("a", 0, 0)], Box("f", (0,))),
           SentenceDiagram([NounState("b", 1, 0), NounState("c", 1, 1)],
                           Box("f", (0, 1))),
           SentenceDiagram([NounState("a", 2, 0)], Box("f", (0,)))]
    td = compose_spelled(sds, CorefMap([[(0, 0), (2, 0)], [(1, 0)],
                                        [(1, 1)]]))
    c = compile(td, AnsatzConfig(kind, q, 2, seed=3))
    blocks = [("a", 1), ("b", 1), ("c", 1), ("f", 1), ("f", 2), ("f", 1)]
    names = [f"{name}__{width}__{i}" for name, width in blocks
             for i in range(block_symbol_count(kind, width * q, 2))]
    assert symbols(c.gates) == names
    rng = np.random.default_rng(3)
    assert list(c.symbols.items()) == [
        (name, float(rng.uniform(0.0, 2 * np.pi)))
        for name in dict.fromkeys(names)]


def test_initial_values_deterministic_and_in_range():
    td = simple_diagram()
    a = compile(td, AnsatzConfig("iqp", 1, 1, seed=5))
    b = compile(td, AnsatzConfig("iqp", 1, 1, seed=5))
    other = compile(td, AnsatzConfig("iqp", 1, 1, seed=6))
    assert a.symbols == b.symbols
    assert a.symbols != other.symbols
    assert all(0 <= v < 6.3 for v in a.symbols.values())


def test_merge_box_postselects_all_but_last_wire():
    td = append_merge_box(simple_diagram(4))
    assert td.layers[-1] == Box("merge_4", (0, 1, 2, 3), merge=True)
    c = compile(td, AnsatzConfig("iqp", 1, 1))
    assert c.postselect == [(0, 0), (1, 0), (2, 0)]
    assert c.outputs == [3]


def test_merge_single_wire_keeps_output():
    td = append_merge_box(simple_diagram(1, box_name="runs"))
    c = compile(td, AnsatzConfig("iqp", 1, 1))
    assert c.postselect == []
    assert c.outputs == [0]


def test_qubit_cap_enforced():
    td = simple_diagram(4)
    with pytest.raises(CapExceeded):
        compile(td, AnsatzConfig("iqp", 4, 1))


def test_frames_rejected():
    nouns = [NounState("a", 0, 0)]
    body = Frame("f", (0,), (Box("g", (0,)),))
    td = compose_spelled([SentenceDiagram(nouns, body)],
                         CorefMap([[(0, 0)]]))
    with pytest.raises(UnexpandedFrame):
        compile(td, AnsatzConfig())


def test_only_expanded_layers_compile():
    states = simple_diagram().states
    for layer in (Identity((0,)), Par((Box("g", (0,)),))):
        with pytest.raises(UnexpandedFrame, match=type(layer).__name__):
            compile(TextDiagram(states, [layer]), AnsatzConfig())
    with pytest.raises(TypeError, match="cannot compile"):
        compile(TextDiagram(states, ["g"]), AnsatzConfig())


def test_multiqubit_wires():
    td = simple_diagram()
    c = compile(td, AnsatzConfig("sim4", 2, 1))
    assert c.n_qubits == 4
    loves = [g for g in c.gates if g.param and g.param.startswith("loves")]
    assert len(loves) == 3 * 4 - 1
    assert all(s.split("__")[1] == "2" for s in c.symbols
               if s.startswith("loves"))  # arity counts wires, not qubits


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        AnsatzConfig("random")
    with pytest.raises(ValueError):
        AnsatzConfig("iqp", 0, 1)
    with pytest.raises(ValueError):
        AnsatzConfig("iqp", 1, 0)


def test_circuit_json_round_trip():
    td = append_merge_box(simple_diagram())
    c = compile(td, AnsatzConfig("sim4", 1, 2, seed=3))
    again = circuit_from_json(json.loads(json.dumps(circuit_to_json(c))))
    assert again == c


@pytest.mark.parametrize("post, outputs", [
    ([(0, 0)], np.array([1])),
    ([(np.int64(0), 0)], [1]),
], ids=["numpy-outputs", "numpy-postselect-qubit"])
def test_an_equal_circuit_built_before_changes_nothing_written(post,
                                                               outputs):
    # a circuit of plain integers writes what it holds, whatever equal
    # circuit, here one of numpy integers, is alive when it is built
    gates = [Gate("H", (0,)), Gate("CX", (0, 1))]

    def written():
        return json.dumps(
            circuit_to_json(Circuit(2, gates, [(0, 0)], {}, [1])))

    alone = written()
    before = Circuit(2, gates, post, {}, outputs)
    assert before == Circuit(2, gates, [(0, 0)], {}, [1])
    assert written() == alone


@pytest.mark.parametrize("n_qubits, post, outputs", [
    (2, [(0, 0)], np.array([1])),
    (2, [(np.int64(0), 0)], [1]),
    (np.int64(2), [(0, 0)], [1]),
], ids=["numpy-outputs", "numpy-postselect-qubit", "numpy-width"])
def test_a_circuit_of_numpy_integers_is_written_as_plain_ones(n_qubits, post,
                                                              outputs):
    gates = [Gate("H", (0,)), Gate("CX", (0, 1))]
    c = Circuit(n_qubits, gates, post, {}, outputs=outputs)
    assert json.dumps(circuit_to_json(c)) == json.dumps(
        circuit_to_json(Circuit(2, gates, [(0, 0)], {}, [1])))


@pytest.mark.parametrize("bits", [(1, 1.0), (1.0, 1)])
def test_a_postselect_bit_is_written_as_it_was_read(bits):
    # equal circuits alive together each write back their own bit
    def data(bit):
        return {"n_qubits": 2, "gates": [{"name": "H", "qubits": [0]}],
                "postselect": [[0, bit]], "symbols": {}, "outputs": [1]}

    circuits = [circuit_from_json(data(bit)) for bit in bits]
    assert circuits[0] == circuits[1]
    for bit, c in zip(bits, circuits):
        assert json.dumps(circuit_to_json(c)) == json.dumps(data(bit))


@pytest.mark.parametrize("change", [
    {"gates": [{"name": "Foo", "qubits": [0]}]},
    {"gates": [{"name": "Rx", "qubits": [0, 1], "param": 1.0}]},
    {"gates": [{"name": "CX", "qubits": [1]}]},
    {"gates": [{"name": "Rx", "qubits": [-1], "param": 1.0}]},
    {"gates": [{"name": "Rx", "qubits": [3], "param": 1.0}]},
    {"gates": [{"name": "CX", "qubits": [1, 1]}]},
    {"gates": [{"name": "Rz", "qubits": [0]}]},
    {"postselect": [[5, 0]]},
    {"postselect": [[0, 2]]},
    {"outputs": [3]},
    {"gates": [{"qubits": [0]}]},
])
def test_malformed_circuit_json_is_a_format_error(change):
    data = {"n_qubits": 3, "gates": [{"name": "H", "qubits": [0]}],
            "postselect": [[1, 0]], "outputs": [2]}
    assert circuit_from_json(data).n_qubits == 3
    with pytest.raises(FormatError):
        circuit_from_json({**data, **change})


@pytest.mark.parametrize("change, location", [
    ({"n_qubits": -1}, "n_qubits"),
    ({"n_qubits": 1.5}, "n_qubits"),
    ({"symbols": {"a": "x"}}, "symbols['a']"),
    ({"symbols": {"a": float("nan")}}, "symbols['a']"),
    ({"symbols": {"a": 10 ** 400}}, "symbols['a']"),
    ({"postselect": [[0, 0], [0, 1]]}, "postselect[1]"),
    ({"gates": [{"name": "Rx", "qubits": [0], "param": [1]}]}, "gates[0]"),
    ({"gates": [{"name": "Rx", "qubits": [0], "param": float("nan")}]},
     "gates[0]"),
    ({"gates": [{"name": "Rx", "qubits": [0], "param": True}]}, "gates[0]"),
    ({"gates": [{"name": "Rx", "qubits": [0], "param": 10 ** 400}]},
     "gates[0]"),
    ({"gates": [{"name": "H", "qubits": [True]}]}, "gates[0]"),
    ({"postselect": [[False, 0]]}, "postselect[0]"),
    ({"postselect": [[1, True]]}, "postselect[0]"),
    ({"outputs": [True]}, "outputs"),
], ids=["negative-width", "fractional-width", "text-symbol", "nan-symbol",
        "huge-symbol", "postselected-twice", "list-param", "nan-param",
        "boolean-param", "huge-param", "boolean-gate-qubit",
        "boolean-postselect-qubit", "boolean-postselect-bit",
        "boolean-output-qubit"])
def test_malformed_circuit_json_names_the_location(change, location):
    data = {"n_qubits": 3, "gates": [{"name": "Rx", "qubits": [0],
                                      "param": "a"}],
            "postselect": [[1, 0]], "symbols": {"a": 0.5}, "outputs": [2]}
    assert circuit_from_json(data).symbols == {"a": 0.5}
    with pytest.raises(FormatError) as err:
        circuit_from_json({**data, **change})
    assert err.value.location == location


def test_dump_circuit_lines():
    c = Circuit(n_qubits=1, gates=[Gate("H", (0,))], outputs=[0])
    assert dump_circuit(c).splitlines() == ["qubits 1", "H 0", "outputs 0"]


def test_compile_deterministic():
    td = append_merge_box(simple_diagram(3))
    cfg = AnsatzConfig("sim4", 1, 2, seed=9)
    assert dump_circuit(compile(td, cfg)) == dump_circuit(compile(td, cfg))


def test_two_boxed_trees_compile_as_their_parts_in_turn():
    """A sentence whose forest is two boxed trees has a ``Par`` body;
    ``compile`` refuses it raw and, expanded, compiles it to the gates of
    its boxes one after the other."""
    n, verb = [["n", 0]], [["n", 1], ["s", 0]]
    data = {"sentences": [{"tokens": ["Alice", "runs", "Bob", "sleeps"],
                           "types": [n, verb, n, verb],
                           "cups": [[0, 1], [3, 4]]}]}
    cfg = PipelineConfig(ansatz=AnsatzConfig("sim4", 1, 1, seed=3))
    td = run(data, cfg, stage="diagram")
    [body] = td.layers
    assert body == Par((Box("runs", (0,)), Box("sleeps", (1,))))
    with pytest.raises(UnexpandedFrame, match="unexpanded layer Par"):
        compile(td, cfg.ansatz)
    got = compile(expand_frames(td, cfg.sandwich), cfg.ansatz)
    parts = compile(TextDiagram(td.states, list(body.elements)), cfg.ansatz)
    assert circuit_to_json(got) == circuit_to_json(parts)
    assert {s.split("__")[0] for s in got.symbols} == \
        {"Alice", "Bob", "runs", "sleeps"}
