import itertools

import numpy as np
import pytest

from discocirc import sim
from discocirc.ansatz import (AnsatzConfig, Circuit, Gate, append_merge_box,
                              compile)
from discocirc.compose import compose_document
from discocirc.errors import CapExceeded, UnboundSymbol, ZeroNorm
from discocirc.frames import Box, NounState, SentenceDiagram
from discocirc.ingest import CorefMap
from discocirc.pipeline import PipelineConfig, run
from discocirc.sim import (TrainConfig, _evaluate, _forward, _gradient,
                           _Plan, _prepare, _score, bce, evaluate_accuracy,
                           gate_matrix, gradient, load_dataset, simulate,
                           train)
from util import (bce_ddist, circuit_unitary, classification_dataset,
                  shift_rule_oracle, train_oracle)

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


def _run_kernel(states, matrices, steps, n):
    """``sim._gate`` over gates on ``steps``' qubits, carrying the qubit
    order from gate to gate, then the result laid out in the order
    0..n-1; and each gate's move."""
    order, moves = tuple(range(n)), []
    for m, qubits in zip(matrices, steps):
        [move], new = sim._moves(order, [qubits])
        assert new == tuple(q for q in order if q not in qubits) + qubits
        states = sim._gate(states, m, move)
        order, moves = new, moves + [move]
    assert (moves, order) == sim._moves(tuple(range(n)), steps)
    [home], _ = sim._moves(order, [tuple(range(n))])
    return sim._reorder(states, home), moves


def test_kernel_matches_dense_oracle_on_every_placement():
    # every gate kind on every qubit and every ordered pair (control above
    # and below the target, adjacent and not), after a gate elsewhere and
    # then once more, when its qubits already sit last and it copies
    # nothing; on one state, a (B,) and a (B, k) stack, with one matrix
    # shared by every state and with a (B, d, d) stack, one per row
    local = np.random.default_rng(5)
    rows = 3
    for n in range(1, 6):
        placements = [(q,) for q in range(n)]
        placements += itertools.permutations(range(n), 2)
        for qubits in placements:
            first = placements[local.integers(len(placements))]
            names = ("H", "Rx", "Ry", "Rz") if len(qubits) == 1 \
                else ("CX", "SWAP", "CRz", "CRx")
            for name in names:
                kinds = ["Ry" if len(first) == 1 else "CRx", name, name]
                steps = [first, qubits, qubits]
                thetas = local.uniform(0, 2 * np.pi, size=(rows, 3))
                gates = [[Gate(kind, q, None if kind in ("H", "CX", "SWAP")
                               else float(t))
                          for kind, q, t in zip(kinds, steps, row)]
                         for row in thetas]
                Us = [circuit_unitary(Circuit(n, row), {}) for row in gates]
                shared = [gate_matrix(g.name, g.param) for g in gates[0]]
                per_row = [np.stack([gate_matrix(g.name, g.param)
                                     for g in column])
                           for column in zip(*gates)]
                for lead in [(), (rows,), (rows, 2)]:
                    states = local.normal(size=lead + (2 ** n,)) \
                        + 1j * local.normal(size=lead + (2 ** n,))
                    out, moves = _run_kernel(states, shared, steps, n)
                    assert moves[2] is None
                    assert out.shape == states.shape
                    assert np.max(np.abs(out - states @ Us[0].T)) < 1e-12
                    if lead:
                        out, _ = _run_kernel(states, per_row, steps, n)
                        for U, row, state in zip(Us, out, states):
                            assert np.max(np.abs(row - state @ U.T)) < 1e-12


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


def test_blocks_partition_the_gates_on_at_most_two_qubits():
    # Rx(0) waits for CX(0, 1); Rz(0) and Ry(1) follow the last 2-qubit
    # gate on their qubits; qubit 3 never meets one
    c = Circuit(4, [Gate("Rx", (0,), "a"), Gate("Ry", (3,), "b"),
                    Gate("CX", (0, 1)), Gate("H", (2,)),
                    Gate("CRz", (2, 1), "c"), Gate("Rz", (0,), "d"),
                    Gate("Ry", (1,), 0.3), Gate("H", (3,))])
    assert _Plan(c).blocks == [((0, 1), [0, 2, 5]), ((2, 1), [3, 4, 6]),
                               ((3,), [1, 7])]
    story = run({"tokens": [["Alice", "reads", "books"],
                            ["Bob", "loves", "music"],
                            ["She", "bought", "bikes"],
                            ["He", "found", "clues"],
                            ["She", "plays", "piano"],
                            ["She", "saw", "herself"]]},
                PipelineConfig(ansatz=AnsatzConfig("sim4")))
    text = classification_dataset(1, seed=3)[0][0]
    for circuit, gates, blocks in ((story, 66, 14), (text, 34, 6)):
        partition = _Plan(circuit).blocks
        assert (len(circuit.gates), len(partition)) == (gates, blocks)
        assert sorted(i for _, idx in partition for i in idx) \
            == list(range(gates))


def _random_group(local, n: int, rows: int) -> tuple[list, dict]:
    """``rows`` circuits of one skeleton on ``n`` qubits, with per-row
    literal angles and symbols drawn from a small shared pool, and the
    symbol values."""
    lone = int(local.integers(n)) if n > 2 and local.random() < 0.4 \
        else None
    paired = [q for q in range(n) if q != lone]
    skeleton = []
    for _ in range(int(local.integers(1, 4 * n + 1))):
        if len(paired) > 1 and local.random() < 0.4:
            name = str(local.choice(["CX", "SWAP", "CRz", "CRx"]))
            qubits = tuple(int(q) for q in local.choice(paired, 2, False))
        else:
            name = str(local.choice(["H", "Rx", "Ry", "Rz"]))
            qubits = (int(local.integers(n)),)
        kind = "fixed" if name in ("H", "CX", "SWAP") \
            else str(local.choice(["symbol", "literal"]))
        skeleton.append((name, qubits, kind))
    post = [(q, int(local.integers(2))) for q in range(n)
            if q != lone and local.random() < 0.3][:n - 1]
    free = [q for q in range(n) if q not in dict(post)]
    outputs = [] if local.random() < 0.5 else sorted(
        int(q) for q in local.choice(free, local.integers(1, len(free) + 1),
                                     False))
    circuits = []
    for _ in range(rows):
        gates = [Gate(name, qubits, f"s{local.integers(4)}"
                      if kind == "symbol" else None if kind == "fixed"
                      else float(local.uniform(0, 2 * np.pi)))
                 for name, qubits, kind in skeleton]
        circuits.append(Circuit(n, gates, post, {}, outputs))
    params = {f"s{k}": float(local.uniform(0, 2 * np.pi)) for k in range(4)}
    return circuits, params


def test_fused_shift_rule_matches_the_per_gate_oracle():
    local = np.random.default_rng(29)
    seen, groups = set(), 0
    while groups < 300:
        circuits, params = _random_group(
            local, int(local.integers(1, 8)), int(local.integers(1, 4)))
        c = circuits[0]
        table, plans, slots = _prepare(circuits, params)
        plan = plans[0]
        assert all(p is plan for p in plans)
        try:
            fwd = _forward(plan, table[np.array(slots)])
        except ZeroNorm:
            continue
        if np.min(fwd.success) < 1e-3:
            continue
        groups += 1
        dl = local.normal(size=fwd.raw.shape)
        fused = _gradient(plan, np.array(slots), table, fwd, dl,
                          "parameter_shift")
        oracle = shift_rule_oracle(circuits, params, dl)
        index = {sym: k for k, sym in enumerate(params)}
        for got, want in zip(fused, oracle):
            # each row's gradient lands in the slots of its symbols only
            assert set(np.flatnonzero(got)) <= {index[s] for s in want}
            assert all(abs(got[index[s]] - want[s]) < 1e-12 for s in want)
        # what the draws covered
        gates = c.gates
        seen |= {g.name for g in gates}
        seen |= {"control below" if g.qubits[0] > g.qubits[1]
                 else "control above" for g in gates if len(g.qubits) == 2}
        seen |= {"literal" if isinstance(g.param, float) else "symbol"
                 for g in gates if g.param is not None}
        seen |= {f"{len(circuits)} rows", f"{c.n_qubits} qubits"}
        symbols = [g.param for g in gates if isinstance(g.param, str)]
        if len(symbols) > len(set(symbols)):
            seen.add("shared symbol")
        if c.postselect:
            seen.add("postselection")
        if not c.outputs:
            seen.add("no outputs")
        blocks = plan.blocks
        if {len(qubits) for qubits, _ in blocks} == {1, 2}:
            seen.add("lone qubit")
        if any(len(gates[idx[-1]].qubits) == 1
               for qubits, idx in blocks if len(qubits) == 2):
            seen.add("trailing 1-qubit gate")
    assert seen >= {"H", "CX", "SWAP", "Rx", "Ry", "Rz", "CRz", "CRx",
                    "control above", "control below", "literal", "symbol",
                    "shared symbol", "postselection", "no outputs",
                    "lone qubit", "trailing 1-qubit gate",
                    "1 rows", "2 rows", "3 rows"} \
        | {f"{n} qubits" for n in range(1, 8)}


def test_parametric_gate_without_angle_is_rejected():
    with pytest.raises(ValueError):
        gate_matrix("Rx", None)
    with pytest.raises(ValueError):
        simulate(Circuit(1, [Gate("Rx", (0,), None)]), {})


def test_unknown_gradient_method():
    c = fixture_circuit()
    with pytest.raises(ValueError):
        gradient(c, c.symbols, np.zeros(2), "symbolic")


@pytest.mark.parametrize("amplitudes", [sim.STACK_AMPLITUDES, 2 * 2 ** 4])
def test_stacked_batch_matches_single_circuits(amplitudes, monkeypatch):
    # the two-topic circuits share one skeleton and run as one stacked
    # group, or in chunks of two when the stack may hold 32 amplitudes;
    # the wide story, between them, runs as a group of one
    monkeypatch.setattr(sim, "STACK_AMPLITUDES", amplitudes)
    story = run({"tokens": [["Alice", "reads", "books"],
                            ["Bob", "loves", "music"],
                            ["She", "bought", "bikes"],
                            ["He", "found", "clues"],
                            ["She", "plays", "piano"],
                            ["She", "saw", "herself"]]},
                PipelineConfig(ansatz=AnsatzConfig("sim4")))
    texts = classification_dataset(3, seed=21)
    batch = [texts[0], (story, 0), texts[1], texts[2]]
    local = np.random.default_rng(17)
    params = {sym: float(local.uniform(0, 2 * np.pi))
              for c, _ in batch for sym in c.symbols}
    table, plans, slots = _prepare([c for c, _ in batch], params)
    assert plans[0] is plans[2] is plans[3] is not plans[1]
    labels = [label for _, label in batch]
    index = {sym: k for k, sym in enumerate(params)}
    for method in ("adjoint", "parameter_shift"):
        results = _evaluate(range(len(batch)), plans, slots, labels, table,
                            method)
        assert len(results) == len(batch)
        for (c, label), (loss, correct, grads, success) in zip(batch,
                                                               results):
            dist, want = simulate(c, params)
            assert abs(success - want) < 1e-12
            assert abs(loss - bce(float(dist[1]), label)) < 1e-12
            assert correct == int((dist[1] >= 0.5) == bool(label))
            single = gradient(c, params, bce_ddist(dist, label), method)
            assert set(np.flatnonzero(grads)) <= {index[s] for s in single}
            assert max(abs(grads[index[s]] - single[s])
                       for s in single) < 1e-12


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


def _wide_story(pronoun_sentences: int):
    """A story on 5 + ``pronoun_sentences`` qubits: two subjects, their
    objects and a reflexive spider copy."""
    verbs = ["bought", "found", "plays", "likes", "writes"]
    objects = ["bikes", "clues", "piano", "bread", "code"]
    sentences = [["Alice", "reads", "books"], ["Bob", "loves", "music"]]
    sentences += [["She" if i % 2 == 0 else "He", verbs[i], objects[i]]
                  for i in range(pronoun_sentences)]
    sentences.append(["She", "saw", "herself"])
    return run({"tokens": sentences},
               PipelineConfig(ansatz=AnsatzConfig("sim4")))


def _assert_trains_like_the_oracle(dataset, cfg):
    params, history = train(dataset, cfg)
    want, oracle = train_oracle(dataset, cfg)
    assert list(params) == list(want)
    assert all(abs(params[s] - want[s]) < 1e-10 for s in want)
    # the first circuit declares its symbols first: training moved them
    assert max(abs(params[s] - value)
               for s, value in dataset[0][0].symbols.items()) > 1e-3
    assert len(history.rows) == len(oracle.rows) == cfg.epochs
    for row, expected in zip(history.rows, oracle.rows):
        assert row[0] == expected[0]
        assert all(abs(a - b) < 1e-10 for a, b in zip(row[1:], expected[1:]))


def test_training_matches_the_sample_by_sample_oracle_on_two_topic_texts():
    dataset = classification_dataset(30, seed=5)
    _assert_trains_like_the_oracle(dataset, TrainConfig(
        epochs=3, batch_size=5, learning_rate=0.05, seed=3,
        gradient="adjoint"))


def test_training_matches_the_oracle_on_mixed_skeletons():
    # four story widths and the two-topic texts: several plans in a batch,
    # and symbols shared between stories and with the texts
    stories = [_wide_story(k) for k in range(2, 6)]
    assert [c.n_qubits for c in stories] == [7, 8, 9, 10]
    texts = classification_dataset(6, seed=4)
    shared = {s for c in stories for s in c.symbols} \
        & {s for c, _ in texts for s in c.symbols}
    assert shared
    dataset = [(c, i % 2) for i, c in enumerate(stories)] + texts
    _assert_trains_like_the_oracle(dataset, TrainConfig(
        epochs=2, batch_size=3, learning_rate=0.05, seed=8,
        gradient="parameter_shift"))


@pytest.mark.parametrize("amplitudes", [sim.STACK_AMPLITUDES, 2 * 2 ** 4])
def test_held_out_scoring_matches_single_circuits(amplitudes, monkeypatch):
    # the texts run as one stack or in chunks of two, each story width as a
    # group of one; accuracy and success must be simulate's, circuit by
    # circuit
    monkeypatch.setattr(sim, "STACK_AMPLITUDES", amplitudes)
    forwards = []

    def counted(plan, thetas):
        forwards.append(len(thetas))
        return _forward(plan, thetas)

    monkeypatch.setattr(sim, "_forward", counted)
    stories = [(_wide_story(k), k % 2) for k in range(2, 6)]
    texts = classification_dataset(9, seed=12)
    dataset = texts[:5] + stories + texts[5:]
    local = np.random.default_rng(19)
    params = {sym: float(local.uniform(0, 2 * np.pi))
              for c, _ in dataset for sym in c.symbols}
    singles = [simulate(c, params) for c, _ in dataset]
    correct = [(dist[1] >= 0.5) == bool(label)
               for (dist, _), (_, label) in zip(singles, dataset)]
    assert 0 < sum(correct) < len(dataset)
    forwards.clear()
    assert evaluate_accuracy(dataset, params) == sum(correct) / len(dataset)
    assert sorted(forwards) == ([1] * 4 + [9] if amplitudes > 2 ** 10
                                else [1] * 5 + [2] * 4)
    table, plans, slots = _prepare([c for c, _ in dataset], params)
    picks = np.array([11, 0, 6, 5, 12, 2])
    acc, success = _score(picks, plans, slots,
                          [label for _, label in dataset], table)
    assert acc == np.mean([correct[i] for i in picks])
    assert max(abs(success - [singles[i][1] for i in picks])) < 1e-12
    assert np.isnan(evaluate_accuracy([], params))


def test_zero_norm_held_out_circuit_stops_training():
    c = fixture_circuit("sim4", 2, 1, seed=10)
    # qubit 0 is postselected on 1 but never leaves |0>
    dead = Circuit(2, [Gate("Ry", (1,), "z")], postselect=[(0, 1)],
                   outputs=[1], symbols={"z": 0.3})
    cfg = TrainConfig(epochs=1, batch_size=5, seed=0)
    held_out = np.random.default_rng(cfg.seed).permutation(5)[4]
    dataset = [(c, i % 2) for i in range(5)]
    train(dataset, cfg)
    dataset[held_out] = (dead, 0)
    with pytest.raises(ZeroNorm):
        train(dataset, cfg)


def test_epoch_log_reports_postselection_success(caplog):
    # at learning rate 0 the parameters stay put, so the training and
    # held-out successes are simulate's at the declared values
    dataset = [(_wide_story(k), k % 2) for k in range(1, 4)] \
        + classification_dataset(7, seed=13)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=5)
    order = np.random.default_rng(cfg.seed).permutation(len(dataset))
    split = int(round(len(dataset) * 0.8))
    params = {}
    for c, _ in dataset:
        for sym, value in c.symbols.items():
            params.setdefault(sym, value)
    success = [simulate(c, params)[1] for c, _ in dataset]
    want = [f"{f([success[i] for i in part]):.3g}"
            for part in (order[:split], order[split:])
            for f in (np.min, np.median)]
    with caplog.at_level("INFO", logger="discocirc.sim"):
        _, history = train(dataset, cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("epoch ")]
    assert len(lines) == 2
    for line, row in zip(lines, history.rows):
        assert line == (f"epoch {row[0]}: loss {row[1]:.4f} train_acc "
                        f"{row[2]:.3f} test_acc {row[3]:.3f}; success train "
                        f"min {want[0]} p50 {want[1]}, test min {want[2]} "
                        f"p50 {want[3]}")


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


def test_dataset_loading_refuses_a_readout_of_other_than_one_qubit(
        tmp_path):
    import json
    from discocirc.ansatz import circuit_to_json
    from discocirc.errors import FormatError
    c = fixture_circuit("sim4", 2, 1, seed=3)
    assert c.postselect == [(0, 0)] and c.outputs == [1]
    # no outputs: the readout defaults to the qubits not postselected
    fine = circuit_to_json(Circuit(2, c.gates, c.postselect, c.symbols))
    cases = {"outputs [0, 1]": dict(circuit_to_json(c), outputs=[0, 1]),
             "no outputs, no postselection": dict(fine, postselect=[])}
    for case, bad in cases.items():
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps({"label": 0, "circuit": data})
                                + "\n" for data in (fine, bad, fine)),
                        encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_dataset(path)
        assert info.value.location == "line 2", case
        assert "2-qubit readout" in info.value.message, case
    path.write_text(json.dumps({"label": 1, "circuit": fine}) + "\n",
                    encoding="utf-8")
    [(loaded, _)] = load_dataset(path)
    assert loaded.readout == [1]


def test_training_refuses_multi_qubit_outcomes_before_simulating(
        monkeypatch):
    def no_forward(plan, thetas):
        raise AssertionError("simulated")

    c = fixture_circuit("sim4", 2, 1, seed=3)
    good = [(c, i % 2) for i in range(4)]
    for bad in (Circuit(2, c.gates, c.postselect, c.symbols, [0, 1]),
                Circuit(2, c.gates, [], c.symbols)):
        assert len(bad.readout) == 2
        dataset = good + [(bad, 0)]
        monkeypatch.setattr(sim, "_forward", no_forward)
        with pytest.raises(ValueError, match="1-qubit output"):
            train(dataset, TrainConfig(epochs=1, batch_size=2))
        with pytest.raises(ValueError, match="1-qubit output"):
            evaluate_accuracy(dataset, c.symbols)
        monkeypatch.undo()
        # simulate still reads any number of qubits
        assert len(simulate(bad, c.symbols)[0]) == 4


def test_bce_and_accuracy():
    assert bce(0.5, 1) == pytest.approx(np.log(2))
    c = fixture_circuit("sim4", 1, 1, seed=9)
    acc = evaluate_accuracy([(c, 0), (c, 1)], dict(c.symbols))
    assert acc in (0.0, 0.5, 1.0)


def test_bad_train_config():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="bogus"):
        TrainConfig(gradient="bogus")
    for method in sim.GRADIENT_METHODS:
        assert TrainConfig(gradient=method).gradient == method
    for rate in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=rate)
    # training is Adam on binary cross-entropy; neither is a setting
    with pytest.raises(TypeError):
        TrainConfig(optimizer="sgd")
