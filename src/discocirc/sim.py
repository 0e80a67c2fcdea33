"""Dense statevector simulation, gradients and a small trainer.

Gates act on a 2^n amplitude vector, or on a stack of them, through one
reshape kernel: a gate on qubit q views the state as (-1, 2, 2^(n-q-1)),
a gate on qubits a < b as (-1, 2, 2^(b-a-1), 2, 2^(n-b-1)); the gate's
axes of that view are transposed last and the gate is one 2-D matrix
product.  Each call builds its gate matrices once, from one list of
angles.  Postselected qubits are projected out and the remainder
renormalized, with the pre-normalization success probability reported.
The output qubits default to every qubit that is not postselected, and
one outcome map says which amplitudes count toward which outcome, for the
readout and for both exact gradients.

Gradients come from three methods: central finite differences; exact
two-term parameter shifts (every parameterised gate here is generated by
an involution up to global phase, so the +-pi/2 rule is exact); and the
adjoint method, one reverse sweep through the circuit.  The exact methods
fold the renormalization's quotient rule into the weights of a single
diagonal observable.  The shift rule walks the circuit once: at each
parameterised gate it shifts the state before that gate both ways and
runs only the later gates on the pair.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ansatz import QUBIT_CAP, Circuit, circuit_from_json
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
        # (I x H) CRz (I x H) = I + 1/2 [[1+e, 1-e], [1-e, 1+e]]
        e = np.exp(1j * theta)
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = [[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]]
        return m
    raise ValueError(f"unknown gate {name!r}")


def _apply(psi: np.ndarray, matrix: np.ndarray, qubits: tuple,
           n: int) -> np.ndarray:
    """Apply a 1- or 2-qubit gate to a state of shape (2^n,) or a stack of
    states (k, 2^n); qubit 0 is the most significant bit.

    The gate's axes of the state's view go last, so the gate is one 2-D
    matrix product, whatever the distance between its qubits.
    """
    if len(qubits) == 1:
        view = psi.reshape(-1, 2, 2 ** (n - qubits[0] - 1))
        axes, back = (0, 2, 1), (0, 2, 1)
    else:
        a, b = qubits
        if a > b:
            a, b = b, a
            matrix = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2) \
                .reshape(4, 4)
        view = psi.reshape(-1, 2, 2 ** (b - a - 1), 2, 2 ** (n - b - 1))
        axes, back = (0, 2, 4, 1, 3), (0, 3, 1, 4, 2)
    moved = view.transpose(axes)
    out = moved.reshape(-1, len(matrix)) @ matrix.T
    return out.reshape(moved.shape).transpose(back).reshape(psi.shape)


def _thetas(c: Circuit, params: dict) -> list:
    """One angle per gate (None for the fixed ones)."""
    if c.n_qubits > QUBIT_CAP:
        raise CapExceeded(
            f"{c.n_qubits} qubits exceed the simulator cap of {QUBIT_CAP}")
    thetas = []
    for gate in c.gates:
        if isinstance(gate.param, str):
            if gate.param not in params:
                raise UnboundSymbol(f"symbol {gate.param!r} has no value")
            thetas.append(params[gate.param])
        else:
            thetas.append(None if gate.param is None else float(gate.param))
    return thetas


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
    """One forward pass: the angles and matrices of every gate, the final
    state, the outcome map, the raw outcome probabilities and the success
    probability."""
    thetas: list
    matrices: list
    state: np.ndarray
    outcomes: tuple
    raw: np.ndarray
    success: float


def _forward(c: Circuit, params: dict) -> _Forward:
    """Run the circuit from |0...0> and read it out; raises ZeroNorm when
    the postselected branch carries (numerically) no amplitude."""
    thetas = _thetas(c, params)
    matrices = [gate_matrix(g.name, t) for g, t in zip(c.gates, thetas)]
    n = max(c.n_qubits, 1)
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    for gate, m in zip(c.gates, matrices):
        state = _apply(state, m, gate.qubits, n)
    outcomes = _outcomes(c)
    kept, outcome, size = outcomes
    probs = np.abs(state[kept]) ** 2
    success = float(np.sum(probs))
    if success < 1e-30:
        raise ZeroNorm(f"postselection probability {success} below 1e-30")
    raw = np.bincount(outcome, weights=probs, minlength=size)
    return _Forward(thetas, matrices, state, outcomes, raw, success)


def simulate(c: Circuit, params: dict) -> tuple[np.ndarray, float]:
    """Renormalized output distribution and postselection probability.

    Raises ZeroNorm when the postselected branch carries (numerically)
    no amplitude.
    """
    fwd = _forward(c, params)
    return fwd.raw / fwd.success, fwd.success


# --- gradients --------------------------------------------------------------

FD_STEP = 1e-6

# G(theta) = exp(-i theta P / 2), so dG/dtheta = -i/2 P G
_GENERATORS = {
    "Rx": _X,
    "Ry": np.array([[0, -1j], [1j, 0]]),
    "Rz": np.diag([1, -1]).astype(complex),
    "CRz": np.diag([0, 0, 0, -2]).astype(complex),
    "CRx": np.kron(np.diag([0, 1]), _X - np.eye(2)),
}


def gradient(c: Circuit, params: dict, dloss_ddist: np.ndarray,
             method: str = "parameter_shift") -> dict[str, float]:
    """Gradient of a loss with known distribution-sensitivity.

    ``dloss_ddist`` is dL/d(normalized distribution) w.  With raw outcome
    probabilities r and success s = sum(r), dL = sum_o c_o dr_o where
    c_o = w_o/s - (w.r)/s^2: the renormalization's quotient rule folds
    into one diagonal observable, differentiated either by shifting one
    gate angle at a time or by one adjoint sweep.
    """
    return _gradient(c, params, _forward(c, params), dloss_ddist, method)


def _gradient(c: Circuit, params: dict, fwd: _Forward,
              dloss_ddist: np.ndarray, method: str) -> dict[str, float]:
    """``gradient`` from a forward pass already made at ``params``."""
    syms = sorted({g.param for g in c.gates if isinstance(g.param, str)})
    if method == "finite_diff":
        def loss_at(p):
            dist, _ = simulate(c, p)
            return float(np.dot(dloss_ddist, dist))

        grad = {}
        for sym in syms:
            up = dict(params, **{sym: params[sym] + FD_STEP})
            down = dict(params, **{sym: params[sym] - FD_STEP})
            grad[sym] = (loss_at(up) - loss_at(down)) / (2 * FD_STEP)
        return grad
    if method not in ("parameter_shift", "adjoint"):
        raise ValueError(f"unknown gradient method {method!r}")

    n = max(c.n_qubits, 1)
    kept, outcome, _ = fwd.outcomes
    w = np.asarray(dloss_ddist, dtype=float)
    observable = np.zeros(2 ** n)
    observable[kept] = (w / fwd.success
                        - np.dot(w, fwd.raw) / fwd.success ** 2)[outcome]
    grad = dict.fromkeys(syms, 0.0)
    if method == "parameter_shift":
        # psi is the state before gate i; only gates i+1... run on the pair
        psi = np.zeros(2 ** n, dtype=complex)
        psi[0] = 1.0
        for i, (gate, theta) in enumerate(zip(c.gates, fwd.thetas)):
            if isinstance(gate.param, str):
                pair = np.stack([
                    _apply(psi, gate_matrix(gate.name, theta + shift),
                           gate.qubits, n)
                    for shift in (np.pi / 2, -np.pi / 2)])
                for later, m in zip(c.gates[i + 1:], fwd.matrices[i + 1:]):
                    pair = _apply(pair, m, later.qubits, n)
                plus, minus = np.abs(pair) ** 2 @ observable
                grad[gate.param] += float(plus - minus) / 2
            psi = _apply(psi, fwd.matrices[i], gate.qubits, n)
        return grad

    # reverse sweep: uncompute psi and carry lam = (later gates)^dag M psi,
    # stacked as one pair; each gate adds
    # 2 Re<lam|dG|psi_before> = Im<lam|P|psi_after>
    pair = np.stack([fwd.state, observable * fwd.state])
    for gate, m in zip(reversed(c.gates), reversed(fwd.matrices)):
        if isinstance(gate.param, str):
            moved = _apply(pair[0], _GENERATORS[gate.name], gate.qubits, n)
            grad[gate.param] += float(np.imag(np.vdot(pair[1], moved)))
        pair = _apply(pair, m.conj().T, gate.qubits, n)
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
    fwd = _forward(circuit, params)
    dist = fwd.raw / fwd.success
    loss = bce(float(dist[1]), label)
    correct = int((dist[1] >= 0.5) == bool(label))
    grads = _gradient(circuit, params, fwd, _bce_ddist(dist, label),
                      grad_method)
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
