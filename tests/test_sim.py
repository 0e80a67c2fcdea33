import itertools

import numpy as np
import pytest

from discocirc.ansatz import (AnsatzConfig, Circuit, Gate, append_merge_box,
                              compile)
from discocirc.compose import compose_document
from discocirc.errors import CapExceeded, UnboundSymbol, ZeroNorm
from discocirc.frames import Box, NounState, SentenceDiagram
from discocirc.ingest import CorefMap
from discocirc.pipeline import PipelineConfig, run
from discocirc.sim import (TrainConfig, _apply, bce, evaluate_accuracy,
                           gate_matrix, gradient, load_dataset, simulate,
                           train)
from util import circuit_unitary

rng = np.random.default_rng(42)


def fixture_circuit(kind="sim4", n_wires=2, layers=1, seed=0):
    nouns = [NounState(f"w{i}", 0, i) for i in range(n_wires)]
    body = Box("act", tuple(range(n_wires)))
    td = compose_document(
        [SentenceDiagram(nouns, body)],
        CorefMap([[(0, i)] for i in range(n_wires)]))
    td = append_merge_box(td)
    return compile(td, AnsatzConfig(kind, 1, layers, seed=seed))


# --- gate semantics ---------------------------------------------------------

def test_empty_circuit_distribution():
    c = Circuit(n_qubits=1, outputs=[0])
    dist, success = simulate(c, {})
    assert np.allclose(dist, [1, 0])
    assert success == pytest.approx(1.0)


def test_hadamard_distribution():
    c = Circuit(n_qubits=1, gates=[Gate("H", (0,))], outputs=[0])
    dist, _ = simulate(c, {})
    assert np.allclose(dist, [0.5, 0.5])


def test_rx_rotation_probability():
    c = Circuit(n_qubits=1, gates=[Gate("Rx", (0,), "t")], outputs=[0],
                symbols={"t": 0.0})
    for theta in (0.0, np.pi / 3, np.pi):
        dist, _ = simulate(c, {"t": theta})
        assert dist[1] == pytest.approx(np.sin(theta / 2) ** 2)


def test_crz_is_diagonal_phase():
    m = gate_matrix("CRz", 0.7)
    assert np.allclose(np.diag(m), [1, 1, 1, np.exp(0.7j)])
    assert np.allclose(m, np.diag(np.diag(m)))


def test_crx_conjugate_of_crz():
    h = gate_matrix("H", None)
    ih = np.kron(np.eye(2), h)
    assert np.allclose(gate_matrix("CRx", 1.1),
                       ih @ gate_matrix("CRz", 1.1) @ ih)


def test_all_gates_are_unitary():
    for name in ("H", "Rx", "Ry", "Rz", "CRz", "CRx", "CX", "SWAP"):
        theta = 1.234 if name not in ("H", "CX", "SWAP") else None
        m = gate_matrix(name, theta)
        assert np.allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-12)


def test_cx_copies_basis_state():
    c = Circuit(n_qubits=2,
                gates=[Gate("Rx", (0,), np.pi), Gate("CX", (0, 1))],
                outputs=[0, 1])
    dist, _ = simulate(c, {})
    assert np.argmax(dist) == 3  # |11>


def test_swap_moves_amplitude():
    c = Circuit(n_qubits=2,
                gates=[Gate("Rx", (0,), np.pi), Gate("SWAP", (0, 1))],
                outputs=[0, 1])
    dist, _ = simulate(c, {})
    assert np.argmax(dist) == 1  # |01>


def test_postselection_renormalizes():
    c = Circuit(n_qubits=2,
                gates=[Gate("H", (0,)), Gate("CX", (0, 1))],
                postselect=[(0, 0)], outputs=[1])
    dist, success = simulate(c, {})
    assert np.allclose(dist, [1, 0])
    assert success == pytest.approx(0.5)


def test_zero_norm_postselection():
    c = Circuit(n_qubits=1, postselect=[(0, 1)], outputs=[])
    with pytest.raises(ZeroNorm):
        simulate(c, {})


def test_unbound_symbol():
    c = Circuit(n_qubits=1, gates=[Gate("Rx", (0,), "t")], outputs=[0])
    with pytest.raises(UnboundSymbol):
        simulate(c, {})


def test_qubit_cap():
    c = Circuit(n_qubits=15, outputs=list(range(15)))
    with pytest.raises(CapExceeded):
        simulate(c, {})


def test_norm_preserved_through_random_circuit():
    c = fixture_circuit("sim4", 3, 2, seed=1)
    c = Circuit(c.n_qubits, c.gates, [], c.symbols,
                list(range(c.n_qubits)))  # drop postselection
    dist, success = simulate(c, c.symbols)
    assert success == pytest.approx(1.0, abs=1e-12)
    assert np.sum(dist) == pytest.approx(1.0, abs=1e-12)


def test_circuit_unitary_oracle_agrees_with_simulation():
    c = fixture_circuit("iqp", 2, 2, seed=2)
    U = circuit_unitary(c, c.symbols)
    assert np.allclose(U.conj().T @ U, np.eye(len(U)), atol=1e-9)
    amps = U[:, 0]
    full = Circuit(c.n_qubits, c.gates, [], c.symbols,
                   list(range(c.n_qubits)))
    dist, _ = simulate(full, c.symbols)
    assert np.allclose(dist, np.abs(amps) ** 2, atol=1e-12)


def test_kernel_matches_dense_oracle_on_every_placement():
    # every gate kind on every qubit and every ordered pair: control above
    # and below the target, adjacent and not
    local = np.random.default_rng(5)
    for n in range(1, 6):
        placements = [(q,) for q in range(n)]
        placements += itertools.permutations(range(n), 2)
        for qubits in placements:
            names = ("H", "Rx", "Ry", "Rz") if len(qubits) == 1 \
                else ("CX", "SWAP", "CRz", "CRx")
            for name in names:
                theta = None if name in ("H", "CX", "SWAP") \
                    else float(local.uniform(0, 2 * np.pi))
                U = circuit_unitary(Circuit(n, [Gate(name, qubits, theta)]),
                                    {})
                m = gate_matrix(name, theta)
                states = local.normal(size=(2, 2 ** n)) \
                    + 1j * local.normal(size=(2, 2 ** n))
                stacked = _apply(states, m, qubits, n)
                assert stacked.shape == states.shape
                for row, state in zip(stacked, states):
                    one = _apply(state, m, qubits, n)
                    assert np.max(np.abs(one - U @ state)) < 1e-12
                    assert np.max(np.abs(row - one)) < 1e-12


# --- gradients --------------------------------------------------------------

def test_gradient_zero_at_stationary_point():
    c = Circuit(n_qubits=1, gates=[Gate("Rx", (0,), "t")], outputs=[0])
    g = gradient(c, {"t": 0.0}, np.array([0.0, 1.0]))
    assert g["t"] == pytest.approx(0.0, abs=1e-12)


def test_gradient_of_rotation_probability():
    c = Circuit(n_qubits=1, gates=[Gate("Rx", (0,), "t")], outputs=[0])
    g = gradient(c, {"t": np.pi / 2}, np.array([0.0, 1.0]))
    assert g["t"] == pytest.approx(0.5)


def test_shared_symbol_sums_occurrences():
    c = Circuit(n_qubits=1,
                gates=[Gate("Rx", (0,), "t"), Gate("Rx", (0,), "t")],
                outputs=[0])
    g = gradient(c, {"t": np.pi / 4}, np.array([0.0, 1.0]))
    # p1 = sin^2(t); derivative at t = pi/4 is sin(2t) = 1
    assert g["t"] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["iqp", "sim4"])
def test_shift_and_finite_diff_agree(kind):
    c = fixture_circuit(kind, 3, 2, seed=3)
    dl = rng.normal(size=2)
    shift = gradient(c, c.symbols, dl, "parameter_shift")
    fd = gradient(c, c.symbols, dl, "finite_diff")
    for sym in shift:
        assert shift[sym] == pytest.approx(fd[sym], abs=1e-4)


def test_adjoint_reads_the_same_outcomes_as_the_shift_rule():
    # no outputs given: every qubit is kept and read, as in simulate
    bare = Circuit(n_qubits=2,
                   gates=[Gate("Rx", (0,), "t"), Gate("Ry", (1,), "u"),
                          Gate("CX", (0, 1))],
                   symbols={"t": 0.4, "u": 1.1})
    # a reflexive pronoun: a spider copy and postselection
    story = run({"tokens": [["Alice", "reads", "books"],
                            ["She", "saw", "herself"]]}, PipelineConfig())
    assert story.postselect
    local = np.random.default_rng(12)
    for c in (bare, story):
        dl = local.normal(size=len(simulate(c, c.symbols)[0]))
        shift = gradient(c, c.symbols, dl, "parameter_shift")
        adj = gradient(c, c.symbols, dl, "adjoint")
        assert max(map(abs, shift.values())) > 1e-3
        for sym in shift:
            assert adj[sym] == pytest.approx(shift[sym], abs=1e-10)
        if c is bare:
            fd = gradient(c, c.symbols, dl, "finite_diff")
            for sym in shift:
                assert fd[sym] == pytest.approx(shift[sym], abs=1e-4)


def test_shift_rule_and_adjoint_agree_on_a_wide_story():
    story = run({"tokens": [["Alice", "reads", "books"],
                            ["Bob", "loves", "music"],
                            ["She", "bought", "bikes"],
                            ["He", "found", "clues"],
                            ["She", "plays", "piano"],
                            ["She", "saw", "herself"]]},
                PipelineConfig(ansatz=AnsatzConfig("sim4")))
    assert story.n_qubits >= 8 and story.postselect
    assert any(g.name == "CX" for g in story.gates)  # the spider copy
    dl = np.random.default_rng(13).normal(
        size=len(simulate(story, story.symbols)[0]))
    shift = gradient(story, story.symbols, dl, "parameter_shift")
    adj = gradient(story, story.symbols, dl, "adjoint")
    fd = gradient(story, story.symbols, dl, "finite_diff")
    assert max(map(abs, shift.values())) > 1e-2
    for sym in shift:
        assert adj[sym] == pytest.approx(shift[sym], abs=1e-10)
        assert fd[sym] == pytest.approx(shift[sym], abs=1e-4)
        assert fd[sym] == pytest.approx(adj[sym], abs=1e-4)


def test_unknown_gradient_method():
    c = fixture_circuit()
    with pytest.raises(ValueError):
        gradient(c, c.symbols, np.zeros(2), "symbolic")


# --- training ---------------------------------------------------------------

def test_single_sample_overfits():
    c = fixture_circuit("sim4", 2, 1, seed=4)
    params, history = train(
        [(c, 1)], TrainConfig(epochs=200, batch_size=1,
                              learning_rate=0.05, seed=0))
    assert history.rows[-1][1] < 0.01


def test_zero_learning_rate_is_inert():
    c = fixture_circuit("sim4", 2, 1, seed=5)
    params, history = train(
        [(c, 0), (c, 1)], TrainConfig(epochs=3, batch_size=2,
                                      learning_rate=0.0, seed=0))
    assert params == dict(c.symbols)
    losses = [row[1] for row in history.rows]
    assert losses[0] == pytest.approx(losses[-1])


def test_training_is_deterministic():
    def once():
        c = fixture_circuit("sim4", 2, 1, seed=6)
        return train([(c, i % 2) for i in range(5)],
                     TrainConfig(epochs=3, batch_size=2,
                                 learning_rate=0.01, seed=7))
    (p1, h1), (p2, h2) = once(), once()
    assert p1 == p2 and h1.rows == h2.rows


def test_history_csv(tmp_path):
    c = fixture_circuit("sim4", 1, 1, seed=8)
    _, history = train([(c, 1)], TrainConfig(epochs=2, batch_size=1,
                                             learning_rate=0.01, seed=0))
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 3


def test_dataset_loading(tmp_path):
    import json
    from discocirc.ansatz import circuit_to_json
    c = fixture_circuit("iqp", 1, 1)
    path = tmp_path / "data.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"text_id": "t0", "label": 1,
                            "circuit": circuit_to_json(c)}) + "\n")
    [(loaded, label)] = load_dataset(path)
    assert label == 1 and loaded == c


def test_bce_and_accuracy():
    assert bce(0.5, 1) == pytest.approx(np.log(2))
    c = fixture_circuit("sim4", 1, 1, seed=9)
    acc = evaluate_accuracy([(c, 0), (c, 1)], dict(c.symbols))
    assert acc in (0.0, 0.5, 1.0)


def test_bad_train_config():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="sgd")
