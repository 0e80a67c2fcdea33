"""Dense statevector simulation, gradients and a small trainer.

Circuits with one gate skeleton (the same width, the same gates on the
same qubits, symbols in the same places, the same postselection and
outputs) run as one stacked state of shape (B, 2^n), one row per
circuit: training evaluates each batch's groups this way, in chunks of at
most 2^QUBIT_CAP amplitudes, and a single circuit is a group of one.
Gates act through one reshape kernel: a gate on qubit q views the stack
as (-1, 2, 2^(n-q-1)), a gate on qubits a < b as
(-1, 2, 2^(b-a-1), 2, 2^(n-b-1)); the gate's axes of that view are
transposed last and the gate is one matrix product.  A fixed gate's
(d, d) matrix is shared by every row, on the view reshaped to (-1, d); a
parameterised gate has a (B, d, d) stack of per-row matrices, on the
view reshaped to (B, -1, d), whose leading axis is the row axis (a group
of one needs no row axis), and each call builds the stacks of all gates
of one kind at once from one (B, G) array of angles.
Postselected qubits are projected out and the remainder renormalized,
with the pre-normalization success probability reported.  The output
qubits default to every qubit that is not postselected, and one outcome
map says which amplitudes count toward which outcome, for the readout
and for both exact gradients.

Gradients come from three methods: central finite differences, circuit
by circuit; exact two-term parameter shifts (every parameterised gate
here is generated by an involution up to global phase, so the +-pi/2
rule is exact); and the adjoint method, one reverse sweep through the
circuit.  The exact methods fold the renormalization's quotient rule into
the weights of a single diagonal observable and run on the whole group:
the adjoint sweep carries each row's state and costate as a (B, 2, 2^n)
stack.  The shift rule fuses the gates into blocks on at most two qubits,
one 4x4 product each; a block's variants with one of its p parameterised
gates shifted either way are built in 4x4 space and run, as one
(B, 2p, 2^n) stack, through the fused later blocks only.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ansatz import (PARAMETRIC_GATES, QUBIT_CAP, Circuit,
                     circuit_from_json)
from .errors import CapExceeded, FormatError, UnboundSymbol, ZeroNorm

log = logging.getLogger(__name__)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_I = np.eye(2)


def gate_matrix(name: str,
                theta: float | np.ndarray | None = None) -> np.ndarray:
    """The dense matrix of one gate (d = 2 or 4): (d, d) for a fixed gate
    or one angle, one matrix per angle, shape theta.shape + (d, d), for an
    array of angles.  A parameterised gate without an angle is a
    ValueError."""
    if name == "H":
        return _H
    if name == "CX":
        return _CX
    if name == "SWAP":
        return _SWAP
    if theta is None and name in PARAMETRIC_GATES:
        raise ValueError(f"{name} gate needs an angle")
    theta = np.asarray(theta, dtype=float)
    if name in ("Rx", "Ry", "Rz"):
        m = np.zeros(theta.shape + (2, 2), dtype=complex)
        if name == "Rz":
            m[..., 0, 0] = np.exp(-0.5j * theta)
            m[..., 1, 1] = np.exp(0.5j * theta)
            return m
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        m[..., 0, 0] = m[..., 1, 1] = c
        if name == "Rx":
            m[..., 0, 1] = m[..., 1, 0] = -1j * s
        else:
            m[..., 0, 1], m[..., 1, 0] = -s, s
        return m
    if name in ("CRz", "CRx"):
        e = np.exp(1j * theta)
        m = np.zeros(theta.shape + (4, 4), dtype=complex)
        m[..., 0, 0] = m[..., 1, 1] = 1
        if name == "CRz":
            m[..., 2, 2], m[..., 3, 3] = 1, e
        else:
            # (I x H) CRz (I x H) = I + 1/2 [[1+e, 1-e], [1-e, 1+e]]
            m[..., 2, 2] = m[..., 3, 3] = (1 + e) / 2
            m[..., 2, 3] = m[..., 3, 2] = (1 - e) / 2
        return m
    raise ValueError(f"unknown gate {name!r}")


def _apply(psi: np.ndarray, matrix: np.ndarray, qubits: tuple,
           n: int) -> np.ndarray:
    """Apply a 1- or 2-qubit gate to a state of shape (2^n,) or a stack of
    states (..., 2^n); qubit 0 is the most significant bit.

    A (d, d) matrix acts on every state.  A (B, d, d) stack acts on a
    stack whose leading axis has length B, matrix b on the states of row
    b.  The gate's axes of the state's view go last, so the gate is one
    matrix product, whatever the distance between its qubits.
    """
    if len(qubits) == 1:
        view = psi.reshape(-1, 2, 2 ** (n - qubits[0] - 1))
        axes = back = (0, 2, 1)
    else:
        a, b = qubits
        if a > b:
            a, b = b, a
            matrix = matrix.reshape(-1, 2, 2, 2, 2) \
                .transpose(0, 2, 1, 4, 3).reshape(matrix.shape)
        view = psi.reshape(-1, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
        axes, back = (0, 2, 4, 1, 3), (0, 3, 1, 4, 2)
    moved = view.transpose(axes)
    if matrix.ndim == 2:
        out = moved.reshape(-1, len(matrix)) @ matrix.T
    else:
        # row b of a C-ordered stack is the b-th of B equal blocks of the
        # view's leading axis
        out = moved.reshape(len(matrix), -1, matrix.shape[-1]) \
            @ matrix.transpose(0, 2, 1)
    return out.reshape(moved.shape).transpose(back).reshape(psi.shape)


def _skeleton(c: Circuit) -> tuple:
    """What circuits must share to run as one stacked state: the width,
    each gate's name and qubits and whether it takes a symbol, the
    postselection and the outputs."""
    return (c.n_qubits,
            tuple([(g.name, g.qubits, isinstance(g.param, str))
                   for g in c.gates]),
            tuple(c.postselect), tuple(c.outputs))


def _angle(gate, params: dict) -> float:
    """A gate's angle: its symbol's value, its number, or NaN for a fixed
    gate."""
    if isinstance(gate.param, str):
        if gate.param not in params:
            raise UnboundSymbol(f"symbol {gate.param!r} has no value")
        return params[gate.param]
    if gate.param is not None:
        return float(gate.param)
    if gate.name in PARAMETRIC_GATES:
        raise ValueError(f"{gate.name} gate needs an angle")
    return np.nan


def _thetas(circuits: list[Circuit], params: dict) -> np.ndarray:
    """The angle of every gate, one row per circuit."""
    n_qubits = circuits[0].n_qubits
    if n_qubits > QUBIT_CAP:
        raise CapExceeded(
            f"{n_qubits} qubits exceed the simulator cap of {QUBIT_CAP}")
    rows = [[_angle(g, params) for g in c.gates] for c in circuits]
    return np.array(rows, dtype=float).reshape(len(circuits), -1)


def _matrices(c: Circuit, thetas: np.ndarray) -> list[np.ndarray]:
    """Every gate's matrix for a group: a fixed gate's (d, d) matrix,
    shared by all rows, or a parameterised gate's (B, d, d) stack, built
    in one step with every gate of its kind from the (B, G) angles.  A
    group of one needs no row axis, so its matrices are all (d, d)."""
    kinds: dict[str, list[int]] = {}
    for i, gate in enumerate(c.gates):
        if gate.name in PARAMETRIC_GATES:
            kinds.setdefault(gate.name, []).append(i)
    angles = thetas.T if len(thetas) > 1 else thetas[0]
    stacks = {name: iter(gate_matrix(name, angles[idx]))
              for name, idx in kinds.items()}
    return [next(stacks[g.name]) if g.name in stacks else gate_matrix(g.name)
            for g in c.gates]


def _outcomes(c: Circuit) -> tuple[np.ndarray, np.ndarray, int]:
    """Which amplitudes count toward which outcome.

    Returns the basis states that survive postselection, the outcome of
    each (output qubits read most significant first; with no outputs
    given, every qubit that is not postselected) and the outcome count.
    """
    n = max(c.n_qubits, 1)
    basis = np.arange(2 ** n)
    keep = np.ones(2 ** n, dtype=bool)
    for qubit, bit in c.postselect:
        keep &= (basis >> (n - 1 - qubit)) & 1 == bit
    post = {qubit for qubit, _ in c.postselect}
    outputs = c.outputs or [qb for qb in range(n) if qb not in post]
    outcome = np.zeros(2 ** n, dtype=np.intp)
    for qubit in outputs:
        outcome = 2 * outcome + ((basis >> (n - 1 - qubit)) & 1)
    kept = np.flatnonzero(keep)
    return kept, outcome[kept], 2 ** len(outputs)


class _Forward(NamedTuple):
    """One forward pass of a group of circuits with one skeleton: the
    angles (one row per circuit) and matrices of every gate, the final
    states, the outcome map, and each row's raw outcome probabilities and
    success probability."""
    thetas: np.ndarray
    matrices: list
    state: np.ndarray
    outcomes: tuple
    raw: np.ndarray
    success: np.ndarray


def _forward(circuits: list[Circuit], params: dict) -> _Forward:
    """Run circuits of one skeleton from |0...0> as one stacked state and
    read them out; raises ZeroNorm when a postselected branch carries
    (numerically) no amplitude."""
    c = circuits[0]
    thetas = _thetas(circuits, params)
    matrices = _matrices(c, thetas)
    n = max(c.n_qubits, 1)
    state = np.zeros((len(circuits), 2 ** n), dtype=complex)
    state[:, 0] = 1.0
    for gate, m in zip(c.gates, matrices):
        state = _apply(state, m, gate.qubits, n)
    outcomes = _outcomes(c)
    kept, outcome, size = outcomes
    probs = np.abs(state[:, kept]) ** 2
    success = np.sum(probs, axis=1)
    if np.min(success) < 1e-30:
        raise ZeroNorm(
            f"postselection probability {np.min(success)} below 1e-30")
    bins = np.arange(len(circuits))[:, None] * size + outcome
    raw = np.bincount(bins.ravel(), weights=probs.ravel(),
                      minlength=len(circuits) * size).reshape(-1, size)
    return _Forward(thetas, matrices, state, outcomes, raw, success)


def simulate(c: Circuit, params: dict) -> tuple[np.ndarray, float]:
    """Renormalized output distribution and postselection probability.

    Raises ZeroNorm when the postselected branch carries (numerically)
    no amplitude.
    """
    fwd = _forward([c], params)
    return fwd.raw[0] / fwd.success[0], float(fwd.success[0])


# --- gradients --------------------------------------------------------------

FD_STEP = 1e-6
_SHIFTS = np.array([np.pi / 2, -np.pi / 2])

# G(theta) = exp(-i theta P / 2), so dG/dtheta = -i/2 P G
_GENERATORS = {
    "Rx": _X,
    "Ry": np.array([[0, -1j], [1j, 0]]),
    "Rz": np.diag([1, -1]).astype(complex),
    "CRz": np.diag([0, 0, 0, -2]).astype(complex),
    "CRx": np.kron(np.diag([0, 1]), _X - _I),
}


def _blocks(c: Circuit) -> list[tuple[tuple, list[int]]]:
    """The gates as blocks on at most two qubits, (qubits, gate indices),
    in running order: a 2-qubit gate takes the 1-qubit gates waiting on its
    qubits; the rest join their qubit's last block or form a block alone."""
    blocks, waiting, last = [], {}, {}
    for i, gate in enumerate(c.gates):
        if len(gate.qubits) == 1:
            waiting.setdefault(gate.qubits[0], []).append(i)
            continue
        blocks.append((gate.qubits, [j for q in gate.qubits
                                     for j in waiting.pop(q, [])] + [i]))
        last.update(dict.fromkeys(gate.qubits, blocks[-1][1]))
    for q in last:
        last[q].extend(waiting.pop(q, []))
    return blocks + [((q,), idx) for q, idx in waiting.items()]


def _widen(m: np.ndarray, on: tuple, qubits: tuple) -> np.ndarray:
    """A gate's matrix (or stack) on the qubits of its block."""
    if len(on) == len(qubits):
        return m
    wide = m[..., :, None, :, None] * _I[:, None, :] if on == qubits[:1] \
        else _I[:, None, :, None] * m[..., None, :, None, :]
    return wide.reshape(m.shape[:-2] + (4, 4))


def _fuse(c: Circuit, fwd: _Forward, qubits: tuple, idx: list[int]) -> tuple:
    """A block's qubits, symbolic gates and matrix, and the variants (gates
    after) G(theta +- pi/2) (gates before) of its p symbolic gates, one per
    row, gate and sign: (B * 2p, d, d)."""
    fused = np.eye(2 ** len(qubits))
    shifted, variants = [], np.zeros((len(fwd.thetas), 0) + fused.shape)
    for i in idx:
        gate = c.gates[i]
        m = _widen(fwd.matrices[i], gate.qubits, qubits)
        variants = m[..., None, :, :] @ variants
        if isinstance(gate.param, str):
            shifted.append(i)
            pair = gate_matrix(gate.name, fwd.thetas[:, i, None] + _SHIFTS)
            variants = np.concatenate([variants, _widen(
                pair, gate.qubits, qubits) @ fused[..., None, :, :]], 1)
        fused = m @ fused
    return qubits, shifted, fused, variants.reshape(-1, *fused.shape[-2:])


def gradient(c: Circuit, params: dict, dloss_ddist: np.ndarray,
             method: str = "parameter_shift") -> dict[str, float]:
    """Gradient of a loss with known distribution-sensitivity.

    ``dloss_ddist`` is dL/d(normalized distribution) w.  With raw outcome
    probabilities r and success s = sum(r), dL = sum_o c_o dr_o where
    c_o = w_o/s - (w.r)/s^2: the renormalization's quotient rule folds
    into one diagonal observable, differentiated either by shifting one
    gate angle at a time or by one adjoint sweep.
    """
    w = np.asarray(dloss_ddist, dtype=float)[None]
    return _gradient([c], params, _forward([c], params), w, method)[0]


def _gradient(circuits: list[Circuit], params: dict, fwd: _Forward,
              dloss_ddist: np.ndarray, method: str) -> list[dict]:
    """``gradient`` of each circuit of a group, one row of ``dloss_ddist``
    each, from the group's forward pass at ``params``."""
    c = circuits[0]
    symbolic = [i for i, g in enumerate(c.gates) if isinstance(g.param, str)]
    symbols = [sorted({circuit.gates[i].param for i in symbolic})
               for circuit in circuits]
    if method == "finite_diff":
        grads = []
        for circuit, syms, w in zip(circuits, symbols, dloss_ddist):
            grad = {}
            for sym in syms:
                up, down = (
                    float(np.dot(w, simulate(
                        circuit, dict(params, **{sym: params[sym] + h}))[0]))
                    for h in (FD_STEP, -FD_STEP))
                grad[sym] = (up - down) / (2 * FD_STEP)
            grads.append(grad)
        return grads
    if method not in ("parameter_shift", "adjoint"):
        raise ValueError(f"unknown gradient method {method!r}")

    n = max(c.n_qubits, 1)
    kept, outcome, _ = fwd.outcomes
    s = fwd.success[:, None]
    weights = dloss_ddist / s \
        - np.sum(dloss_ddist * fwd.raw, axis=1, keepdims=True) / s ** 2
    observable = np.zeros((len(circuits), 2 ** n))
    observable[:, kept] = weights[:, outcome]
    # contrib[r, i]: what gate i adds to the derivative of row r's loss
    # by the gate's symbol
    contrib = np.zeros((len(circuits), len(c.gates)))
    if method == "parameter_shift":
        # psi is the state before block k; the (B, 2 p_k, 2^n) stack of
        # its shifted variants runs through the later blocks only
        blocks = [_fuse(c, fwd, *block) for block in _blocks(c)]
        psi = np.zeros((len(circuits), 2 ** n), dtype=complex)
        psi[:, 0] = 1.0
        for k, (qubits, shifted, fused, variants) in enumerate(blocks):
            if shifted:
                stack = _apply(np.repeat(psi[:, None], 2 * len(shifted), 1),
                               variants, qubits, n)
                for later, _, lm, _ in blocks[k + 1:]:
                    stack = _apply(stack, lm, later, n)
                expect = (np.abs(stack) ** 2 @ observable[:, :, None])[..., 0]
                contrib[:, shifted] = (expect[:, ::2] - expect[:, 1::2]) / 2
            psi = _apply(psi, fused, qubits, n)
    else:
        # reverse sweep: uncompute psi and carry
        # lam = (later gates)^dag M psi, stacked as one (B, 2, 2^n) pair;
        # each gate adds 2 Re<lam|dG|psi_before> = Im<lam|P|psi_after>
        pair = np.stack([fwd.state, observable * fwd.state], axis=1)
        for i in reversed(range(len(c.gates))):
            gate = c.gates[i]
            if isinstance(gate.param, str):
                moved = _apply(pair[:, 0], _GENERATORS[gate.name],
                               gate.qubits, n)
                contrib[:, i] = np.sum(pair[:, 1].conj() * moved,
                                       axis=1).imag
            pair = _apply(pair, fwd.matrices[i].conj().swapaxes(-1, -2),
                          gate.qubits, n)
        symbolic.reverse()
    # each row's sums run in the order the gates were visited
    grads = []
    for circuit, syms, row in zip(circuits, symbols, contrib.tolist()):
        grad = dict.fromkeys(syms, 0.0)
        for i in symbolic:
            grad[circuit.gates[i].param] += row[i]
        grads.append(grad)
    return grads

# --- training ---------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    learning_rate: float = 0.01
    gradient: str = "parameter_shift"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


EPS = 1e-12
# a training group's stacked state holds at most this many amplitudes (a
# wider group runs in chunks): the adjoint's (B, 2, 2^n) stack twice as
# many, the shift rule's (B, 2 p_k, 2^n) stack 2 p_k times as many
STACK_AMPLITUDES = 2 ** QUBIT_CAP


def bce(p1: float, label: int) -> float:
    p1 = min(max(p1, EPS), 1 - EPS)
    return -(label * np.log(p1) + (1 - label) * np.log(1 - p1))


def _bce_ddist(dist: np.ndarray, label: int) -> np.ndarray:
    """dL/d(distribution) for a two-outcome distribution."""
    if len(dist) != 2:
        raise ValueError("binary classification needs a 1-qubit output")
    p1 = min(max(float(dist[1]), EPS), 1 - EPS)
    d = np.zeros(2)
    d[1] = -label / p1 + (1 - label) / (1 - p1)
    return d


@dataclass
class History:
    rows: list[tuple[int, float, float, float]] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "train_loss", "train_acc", "test_acc"])
            writer.writerows(self.rows)


def _evaluate(batch: list[tuple[Circuit, int]], params: dict,
              grad_method: str) -> list[tuple]:
    """Loss, correctness and gradient of each sample, in batch order.

    The samples that share a ``_skeleton`` run as one stacked group, in
    chunks of at most STACK_AMPLITUDES amplitudes.
    """
    groups: dict[tuple, list[int]] = {}
    for pos, (c, _) in enumerate(batch):
        groups.setdefault(_skeleton(c), []).append(pos)
    chunks = []
    for positions in groups.values():
        rows = max(1, STACK_AMPLITUDES >> batch[positions[0]][0].n_qubits)
        chunks += [positions[i:i + rows]
                   for i in range(0, len(positions), rows)]
    results = [None] * len(batch)
    for positions in chunks:
        circuits = [batch[pos][0] for pos in positions]
        labels = [batch[pos][1] for pos in positions]
        fwd = _forward(circuits, params)
        dists = fwd.raw / fwd.success[:, None]
        dloss = np.array([_bce_ddist(dist, label)
                          for dist, label in zip(dists, labels)])
        grads = _gradient(circuits, params, fwd, dloss, grad_method)
        for pos, dist, label, grad in zip(positions, dists, labels, grads):
            results[pos] = (bce(float(dist[1]), label),
                            int((dist[1] >= 0.5) == bool(label)), grad)
    return results


def train(dataset: list[tuple[Circuit, int]],
          cfg: TrainConfig) -> tuple[dict[str, float], History]:
    """Adam on mean binary cross entropy over the 1-qubit output.

    The dataset is shuffled and split 80/20 into train/test with the
    config seed; all circuits share one symbol table (union of their
    declared symbols, same initial values everywhere).
    """
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    split = max(1, int(round(len(dataset) * 0.8)))
    train_set = [dataset[i] for i in order[:split]]
    test_set = [dataset[i] for i in order[split:]]

    params: dict[str, float] = {}
    for circuit, _ in dataset:
        for sym, value in circuit.symbols.items():
            params.setdefault(sym, value)

    m = {s: 0.0 for s in params}
    v = {s: 0.0 for s in params}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = History()

    for epoch in range(1, cfg.epochs + 1):
        batch_order = rng.permutation(len(train_set))
        losses, corrects = [], 0
        for start in range(0, len(train_set), cfg.batch_size):
            picks = batch_order[start:start + cfg.batch_size]
            results = _evaluate([train_set[i] for i in picks], params,
                                cfg.gradient)
            grad_sum = {s: 0.0 for s in params}
            for loss, correct, grads in results:
                losses.append(loss)
                corrects += correct
                for sym, g in grads.items():
                    grad_sum[sym] += g
            step += 1
            for sym in params:
                g = grad_sum[sym] / len(picks)
                m[sym] = beta1 * m[sym] + (1 - beta1) * g
                v[sym] = beta2 * v[sym] + (1 - beta2) * g * g
                m_hat = m[sym] / (1 - beta1 ** step)
                v_hat = v[sym] / (1 - beta2 ** step)
                params[sym] -= (cfg.learning_rate * m_hat
                                / (np.sqrt(v_hat) + eps))
        train_loss = float(np.mean(losses)) if losses else 0.0
        train_acc = corrects / max(len(train_set), 1)
        test_acc = evaluate_accuracy(test_set, params) if test_set \
            else float("nan")
        history.rows.append((epoch, train_loss, train_acc, test_acc))
        log.info("epoch %d: loss %.4f train_acc %.3f test_acc %.3f",
                 epoch, train_loss, train_acc, test_acc)
    return params, history


def evaluate_accuracy(dataset, params) -> float:
    if not dataset:
        return float("nan")
    correct = 0
    for circuit, label in dataset:
        dist, _ = simulate(circuit, params)
        correct += int((dist[1] >= 0.5) == bool(label))
    return correct / len(dataset)


def load_dataset(path) -> list[tuple[Circuit, int]]:
    """JSON-lines dataset: {"text_id", "label", "circuit" or
    "circuit_path"} per line, the label 0 or 1.

    Raises FormatError, naming the line, for a line that is not a JSON
    object, a missing or other label, and a record with no circuit.
    """
    out = []
    base = Path(path).parent
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"line {number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"not JSON: {exc}", where) from exc
            if not isinstance(record, dict):
                raise FormatError("not a JSON object", where)
            label = record.get("label")
            if label not in (0, 1):
                raise FormatError(f"label must be 0 or 1, got {label!r}",
                                  where)
            if "circuit" in record:
                data = record["circuit"]
            elif "circuit_path" in record:
                with open(base / record["circuit_path"],
                          encoding="utf-8") as g:
                    data = json.load(g)
            else:
                raise FormatError(
                    'record has neither "circuit" nor "circuit_path"', where)
            out.append((circuit_from_json(data), int(label)))
    return out
