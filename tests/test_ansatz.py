import json

import pytest

from discocirc.ansatz import (AnsatzConfig, Circuit, Gate, append_merge_box,
                              block_symbol_count, circuit_from_json,
                              circuit_to_json, compile, dump_circuit,
                              iqp_block, sim4_block)
from discocirc.compose import compose_document
from discocirc.errors import CapExceeded, FormatError, UnexpandedFrame
from discocirc.frames import (Box, Frame, NounState, SentenceDiagram)
from discocirc.ingest import CorefMap


def simple_diagram(n_wires=2, box_name="loves"):
    nouns = [NounState(f"w{i}", 0, i) for i in range(n_wires)]
    body = Box(box_name, tuple(range(n_wires)))
    sd = SentenceDiagram(nouns, body)
    return compose_document([sd], CorefMap([[(0, i)]
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
    td = compose_document(
        [sd, sd2], CorefMap([[(0, 0)], [(1, 0)]]))
    shared = compile(td, AnsatzConfig("sim4", 1, 1, share_parameters=True))
    solo = compile(td, AnsatzConfig("sim4", 1, 1, share_parameters=False))
    assert len(shared.symbols) < len(solo.symbols)
    assert any(".1__" in s for s in solo.symbols)


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
    td = compose_document([SentenceDiagram(nouns, body)],
                          CorefMap([[(0, 0)]]))
    with pytest.raises(UnexpandedFrame):
        compile(td, AnsatzConfig())


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


def test_dump_circuit_lines():
    c = Circuit(n_qubits=1, gates=[Gate("H", (0,))], outputs=[0])
    assert dump_circuit(c).splitlines() == ["qubits 1", "H 0", "outputs 0"]


def test_compile_deterministic():
    td = append_merge_box(simple_diagram(3))
    cfg = AnsatzConfig("sim4", 1, 2, seed=9)
    assert dump_circuit(compile(td, cfg)) == dump_circuit(compile(td, cfg))
