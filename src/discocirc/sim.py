"""Dense statevector simulation, gradients and a small trainer.

Gates act on a 2^n amplitude vector; postselected qubits are projected
out and the remainder renormalized, with the pre-normalization success
probability reported.  Gradients come either from central finite
differences or from exact two-term parameter shifts (every parameterised
gate here is generated by an involution up to global phase, so the
+-pi/2 rule is exact); normalization is handled by the quotient rule.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from .ansatz import QUBIT_CAP, Circuit, Gate, circuit_from_json
from .errors import CapExceeded, UnboundSymbol, ZeroNorm

log = logging.getLogger(__name__)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def gate_matrix(name: str, theta: float | None = None) -> np.ndarray:
    """The dense matrix of one gate (2x2 or 4x4)."""
    if name == "H":
        return _H
    if name == "CX":
        return _CX
    if name == "SWAP":
        return _SWAP
    if name == "Rx":
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "Ry":
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "Rz":
        return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    if name == "CRz":
        return np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)
    if name == "CRx":
        ih = np.kron(np.eye(2), _H)
        return ih @ gate_matrix("CRz", theta) @ ih
    raise ValueError(f"unknown gate {name!r}")


def _apply(state: np.ndarray, matrix: np.ndarray, qubits: tuple,
           n: int) -> np.ndarray:
    """Apply a k-qubit gate to the statevector (qubit 0 = leftmost)."""
    k = len(qubits)
    psi = state.reshape([2] * n)
    psi = np.moveaxis(psi, qubits, range(k))
    psi = (matrix @ psi.reshape(2 ** k, -1)).reshape([2] * n)
    psi = np.moveaxis(psi, range(k), qubits)
    return psi.reshape(-1)


def _angle(gate: Gate, params: dict, shifts: dict | None) -> float:
    if isinstance(gate.param, str):
        if gate.param not in params:
            raise UnboundSymbol(f"symbol {gate.param!r} has no value")
        theta = params[gate.param]
    else:
        theta = float(gate.param)
    if shifts:
        theta += shifts.get(id(gate), 0.0)
    return theta


def _unnormalized(c: Circuit, params: dict,
                  shifts: dict | None = None) -> tuple[np.ndarray, float]:
    """Unnormalized Born distribution over output qubits plus success
    probability (norm^2 surviving postselection)."""
    if c.n_qubits > QUBIT_CAP:
        raise CapExceeded(
            f"{c.n_qubits} qubits exceed the simulator cap of {QUBIT_CAP}")
    state = np.zeros(2 ** max(c.n_qubits, 1), dtype=complex)
    state[0] = 1.0
    for gate in c.gates:
        theta = (_angle(gate, params, shifts)
                 if gate.param is not None else None)
        state = _apply(state, gate_matrix(gate.name, theta), gate.qubits,
                       max(c.n_qubits, 1))
    n = max(c.n_qubits, 1)
    psi = state.reshape([2] * n)
    # project postselected qubits via an index selector
    index = [slice(None)] * n
    for qubit, bit in c.postselect:
        index[qubit] = bit
    psi = psi[tuple(index)]
    success = float(np.sum(np.abs(psi) ** 2))
    # remaining axes correspond to non-postselected qubits ascending
    kept = [qb for qb in range(n) if all(qb != p for p, _ in c.postselect)]
    outputs = c.outputs if c.outputs else kept
    axis_of = {qb: i for i, qb in enumerate(kept)}
    out_axes = [axis_of[qb] for qb in outputs]
    other = [i for i in range(len(kept)) if i not in out_axes]
    psi = np.transpose(psi, out_axes + other)
    probs = np.abs(psi.reshape(2 ** len(outputs), -1)) ** 2
    return probs.sum(axis=1), success


def simulate(c: Circuit, params: dict) -> tuple[np.ndarray, float]:
    """Renormalized output distribution and postselection probability.

    Raises ZeroNorm when the postselected branch carries (numerically)
    no amplitude.
    """
    raw, success = _unnormalized(c, params)
    if success < 1e-30:
        raise ZeroNorm(f"postselection probability {success} below 1e-30")
    return raw / success, success


def circuit_unitary(c: Circuit, params: dict) -> np.ndarray:
    """The circuit's full 2^n matrix (ignoring postselection); the dense
    oracle for unitarity checks."""
    n = max(c.n_qubits, 1)
    U = np.eye(2 ** n, dtype=complex)
    for gate in c.gates:
        theta = _angle(gate, params, None) if gate.param is not None else None
        m = gate_matrix(gate.name, theta)
        full = _embed(m, gate.qubits, n)
        U = full @ U
    return U


def _embed(matrix: np.ndarray, qubits: tuple, n: int) -> np.ndarray:
    """Promote a k-qubit gate to the full 2^n space."""
    k = len(qubits)
    dims = [2] * (2 * n)
    ident = reduce(np.kron, [np.eye(2, dtype=complex)] * (n - k),
                   np.eye(1, dtype=complex))
    big = np.kron(matrix, ident).reshape(dims)
    order = list(qubits) + [qb for qb in range(n) if qb not in qubits]
    inverse = np.argsort(order)
    big = np.transpose(big, list(inverse) + [n + i for i in inverse])
    return big.reshape(2 ** n, 2 ** n)


# --- gradients --------------------------------------------------------------

FD_STEP = 1e-6


def _gate_derivative(name: str, theta: float) -> np.ndarray:
    """d/dtheta of a parameterised gate's matrix."""
    if name == "Rx":
        return -0.5j * _X @ gate_matrix("Rx", theta)
    if name == "Ry":
        y = np.array([[0, -1j], [1j, 0]])
        return -0.5j * y @ gate_matrix("Ry", theta)
    if name == "Rz":
        z = np.diag([1.0, -1.0]).astype(complex)
        return -0.5j * z @ gate_matrix("Rz", theta)
    if name == "CRz":
        return np.diag([0, 0, 0, 1j * np.exp(1j * theta)]).astype(complex)
    if name == "CRx":
        ih = np.kron(np.eye(2), _H)
        return ih @ _gate_derivative("CRz", theta) @ ih
    raise ValueError(f"gate {name!r} is not parameterised")


def _adjoint_dist_grads(c: Circuit, params: dict) -> dict[str, np.ndarray]:
    """d(unnormalized dist)/d sym for every symbol in one reverse sweep.

    The unnormalized probability of each outcome is the expectation of a
    diagonal projector, so each outcome gets one backward pass and every
    parameterised gate contributes 2*Re<lam|dG|psi>.
    """
    n = max(c.n_qubits, 1)
    states = [None] * (len(c.gates) + 1)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    states[0] = state
    thetas = []
    for i, gate in enumerate(c.gates):
        theta = (_angle(gate, params, None)
                 if gate.param is not None else None)
        thetas.append(theta)
        state = _apply(state, gate_matrix(gate.name, theta), gate.qubits, n)
        states[i + 1] = state

    # diagonal projector masks, one per output outcome
    post_bits = dict(c.postselect)
    outcomes = 2 ** len(c.outputs)
    idx = np.arange(2 ** n)
    bit = {qb: (idx >> (n - 1 - qb)) & 1 for qb in range(n)}
    post_mask = np.ones(2 ** n, dtype=bool)
    for qb, b in post_bits.items():
        post_mask &= bit[qb] == b
    grads = {g.param: np.zeros(outcomes)
             for g in c.gates if isinstance(g.param, str)}
    for o in range(outcomes):
        mask = post_mask.copy()
        for k, qb in enumerate(c.outputs):
            mask &= bit[qb] == (o >> (len(c.outputs) - 1 - k)) & 1
        lam = states[-1] * mask
        for i in range(len(c.gates) - 1, -1, -1):
            gate = c.gates[i]
            m = gate_matrix(gate.name, thetas[i])
            if isinstance(gate.param, str):
                d = _gate_derivative(gate.name, thetas[i])
                dpsi = _apply(states[i], d, gate.qubits, n)
                grads[gate.param][o] += 2 * float(
                    np.real(np.vdot(lam, dpsi)))
            lam = _apply(lam, m.conj().T, gate.qubits, n)
    return grads


def _dist_grad_shift(c: Circuit, params: dict, sym: str) -> tuple:
    """d(unnormalized dist)/d sym and d(success)/d sym by two-term
    shifts, one per gate occurrence."""
    d_raw = None
    d_success = 0.0
    for gate in c.gates:
        if gate.param != sym:
            continue
        plus, s_plus = _unnormalized(c, params, {id(gate): np.pi / 2})
        minus, s_minus = _unnormalized(c, params, {id(gate): -np.pi / 2})
        term = (plus - minus) / 2
        d_raw = term if d_raw is None else d_raw + term
        d_success += (s_plus - s_minus) / 2
    if d_raw is None:
        d_raw = np.zeros(2 ** len(c.outputs))
    return d_raw, d_success


def gradient(c: Circuit, params: dict, dloss_ddist: np.ndarray,
             method: str = "parameter_shift") -> dict[str, float]:
    """Gradient of a loss with known distribution-sensitivity.

    ``dloss_ddist`` is dL/d(normalized distribution); the quotient rule
    carries derivatives through the postselection renormalization.
    """
    syms = sorted({g.param for g in c.gates if isinstance(g.param, str)})
    grad = {}
    if method == "finite_diff":
        def loss_at(p):
            dist, _ = simulate(c, p)
            return float(np.dot(dloss_ddist, dist))

        for sym in syms:
            up = dict(params, **{sym: params[sym] + FD_STEP})
            down = dict(params, **{sym: params[sym] - FD_STEP})
            grad[sym] = (loss_at(up) - loss_at(down)) / (2 * FD_STEP)
        return grad
    if method not in ("parameter_shift", "adjoint"):
        raise ValueError(f"unknown gradient method {method!r}")

    raw, success = _unnormalized(c, params)
    if success < 1e-30:
        raise ZeroNorm(f"postselection probability {success} below 1e-30")
    adjoint_grads = (_adjoint_dist_grads(c, params)
                     if method == "adjoint" else None)
    for sym in syms:
        if adjoint_grads is not None:
            d_raw = adjoint_grads[sym]
            d_success = float(d_raw.sum())
        else:
            d_raw, d_success = _dist_grad_shift(c, params, sym)
        d_dist = (d_raw * success - raw * d_success) / success ** 2
        grad[sym] = float(np.dot(dloss_ddist, d_dist))
    return grad


# --- training ---------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 10
    learning_rate: float = 0.01
    optimizer: str = "adam"
    loss: str = "bce"
    gradient: str = "parameter_shift"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.optimizer != "adam" or self.loss != "bce":
            raise ValueError("only adam/bce are supported")


EPS = 1e-12


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


def _evaluate(sample, params, grad_method):
    circuit, label = sample
    dist, _ = simulate(circuit, params)
    loss = bce(float(dist[1]), label)
    correct = int((dist[1] >= 0.5) == bool(label))
    grads = gradient(circuit, params, _bce_ddist(dist, label), grad_method)
    return loss, correct, grads


def train(dataset: list[tuple[Circuit, int]],
          cfg: TrainConfig) -> tuple[dict[str, float], History]:
    """Adam on mean binary cross entropy over the 1-qubit output.

    The dataset is shuffled and split 80/20 into train/test with the
    config seed; all circuits share one symbol table (union of their
    declared symbols, same initial values everywhere).
    """
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    split = max(1, int(round(len(dataset) * 0.8))) if len(dataset) > 1 \
        else 1
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
            batch = [train_set[i]
                     for i in batch_order[start:start + cfg.batch_size]]
            grad_sum = {s: 0.0 for s in params}
            for sample in batch:
                loss, correct, grads = _evaluate(sample, params,
                                                 cfg.gradient)
                losses.append(loss)
                corrects += correct
                for sym, g in grads.items():
                    grad_sum[sym] += g
            step += 1
            for sym in params:
                g = grad_sum[sym] / len(batch)
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
    "circuit_path"} per line."""
    out = []
    base = Path(path).parent
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "circuit" in record:
                circuit = circuit_from_json(record["circuit"])
            else:
                with open(base / record["circuit_path"],
                          encoding="utf-8") as g:
                    circuit = circuit_from_json(json.load(g))
            out.append((circuit, int(record["label"])))
    return out
