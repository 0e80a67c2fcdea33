"""Dense statevector simulation, gradients and a small trainer.

Circuits with one gate skeleton (the same width, the same gates on the
same qubits, symbols in the same places, the same postselection and
outputs) share one plan: each gate's name, qubits and move, the gates of
each parameterised kind, the positions of the symbolic gates, the outcome
map and the shift rule's blocks, all worked out once.  A circuit carries
its skeleton as a plain value, and the plans of the last 64 skeletons
used are kept per process and found by value, so preparing a circuit is
a lookup and one gather of its slots.  Angles come from one table: the
parameter vector, then NaN for the fixed gates and the literal angles.
A circuit's slots index each gate's angle in the table, so a group's
(B, G) angles are one gather, ``table[slots]``, a gradient is one
scatter-add of per-gate terms into the slots, and ``train`` runs Adam on
the vector.

A group runs as one stacked state of shape (B, 2^n), one row per circuit,
in chunks of at most STACK_AMPLITUDES amplitudes; a gate whose angle is
the same on every row applies one matrix to all of them.  Each gate
leaves its qubits last in the state's layout, and the next moves its own
there with one copy, or none; the state returns to qubit order 0..n-1 (0
the most significant bit) once, for readout: postselected qubits are
projected out, the rest renormalized with the success probability
reported, and the outputs default to every other qubit.

Gradients are exact: two-term parameter shifts (each parameterised gate
here is generated by an involution up to global phase), or one adjoint
sweep of each row's state and costate as a (B, 2, 2^n) stack.  Both fold
the renormalization into one diagonal observable.  The shift rule
fuses the gates into blocks on at most two qubits; a block's variants
with one of its p parameterised gates shifted either way are built in
4x4 space and run, as one (B, 2p, 2^n) stack, through the later blocks.
"""

from __future__ import annotations

import itertools
import json
import logging
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ansatz import (PARAMETRIC_GATES, QUBIT_CAP, Circuit,
                     circuit_from_json)
from .errors import CapExceeded, FormatError, UnboundSymbol, ZeroNorm
from .ingest import read_json, write_text

log = logging.getLogger(__name__)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I = np.eye(2)
_FIXED = {"H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
          "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
          "CX": np.eye(4, dtype=complex)[[0, 1, 3, 2]]}


def gate_matrix(name: str,
                theta: float | np.ndarray | None = None) -> np.ndarray:
    """The dense matrix of one gate (d = 2 or 4): (d, d) for a fixed gate
    or one angle, one matrix per angle, shape theta.shape + (d, d), for an
    array of angles.  A parameterised gate without an angle is a
    ValueError."""
    if name in _FIXED:
        return _FIXED[name]
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


def _moves(order: tuple, steps) -> tuple[list, tuple]:
    """From qubit order ``order``, the view (shape, axes) putting each
    step's qubits last in turn (None if they are), and the final order."""
    shape, moves = (-1,) + (2,) * len(order), []
    for qubits in steps:
        new = tuple([q for q in order if q not in qubits]) + tuple(qubits)
        moves.append(None if new == order else
                     (shape, (0, *[1 + order.index(q) for q in new])))
        order = new
    return moves, order


def _reorder(psi: np.ndarray, move) -> np.ndarray:
    """A state or stack of states (..., 2^n) laid out anew by ``move``."""
    return psi if move is None \
        else psi.reshape(move[0]).transpose(move[1]).reshape(psi.shape)


def _gate(psi: np.ndarray, matrix: np.ndarray, move) -> np.ndarray:
    """A 1- or 2-qubit gate on a state (2^n,) or stack (..., 2^n) laid out
    by ``move`` with its qubits last, where they stay: a (d, d) matrix acts
    on every state, a (B, d, d) stack's b-th on row b of the leading axis."""
    rows = len(matrix) if matrix.ndim == 3 else 1
    return (_reorder(psi, move).reshape(rows, -1, matrix.shape[-1])
            @ matrix.swapaxes(-1, -2)).reshape(psi.shape)


class _Plan:
    """What the circuits of one gate skeleton share; ``gates`` holds each
    gate's (name, qubits, whether it takes a symbol)."""

    def __init__(self, skeleton):
        self.n = n = max(skeleton.n_qubits, 1)
        self.gates = gates = tuple(zip(*skeleton.columns(),
                                       skeleton.symbolic))
        # each gate's move from |0...0>, then the move back to 0..n-1
        self.moves = _moves(tuple(range(n)), [q for _, q, _ in gates]
                            + [tuple(range(n))])[0]
        self.symbolic = np.flatnonzero(list(skeleton.symbolic))
        kinds: dict[str, list[int]] = {}
        for i, (name, _, _) in enumerate(gates):
            if name in PARAMETRIC_GATES:
                kinds.setdefault(name, []).append(i)
        self.kinds = {name: np.array(idx) for name, idx in kinds.items()}
        # the parameterised gates a circuit gives a literal angle, if any
        self.literal = [i for idx in kinds.values() for i in idx
                        if not gates[i][2]]
        self.fixed = [None if name in PARAMETRIC_GATES else gate_matrix(name)
                      for name, _, _ in gates]
        # the outcome map: the basis states that survive postselection and
        # the outcome of each, output qubits read most significant first
        basis = np.arange(2 ** n)
        keep = np.ones(2 ** n, dtype=bool)
        for qubit, bit in skeleton.postselect:
            keep &= (basis >> (n - 1 - qubit)) & 1 == bit
        outcome = np.zeros(2 ** n, dtype=np.intp)
        readout = skeleton.readout
        for qubit in readout:
            outcome = 2 * outcome + ((basis >> (n - 1 - qubit)) & 1)
        self.kept = np.flatnonzero(keep)
        self.outcome = outcome[self.kept]
        self.size = 2 ** len(readout)

    def matrices(self, angles: np.ndarray) -> list[np.ndarray]:
        """Every gate's matrix for (G, ...) angles, one row per gate: (d, d)
        for a fixed gate, else shape angles.shape[1:] + (d, d)."""
        out = list(self.fixed)
        for name, idx in self.kinds.items():
            for i, m in zip(idx, gate_matrix(name, angles[idx])):
                out[i] = m
        return out

    @cached_property
    def blocks(self) -> list[tuple[tuple, list[int]]]:
        """The gates as blocks on at most two qubits, (qubits, gate
        indices), in running order: a 2-qubit gate takes the 1-qubit gates
        waiting on its qubits; the rest join their qubit's last block or
        form a block alone."""
        blocks, waiting, last = [], {}, {}
        for i, (_, qubits, _) in enumerate(self.gates):
            if len(qubits) == 1:
                waiting.setdefault(qubits[0], []).append(i)
                continue
            blocks.append((qubits, [j for q in qubits
                                    for j in waiting.pop(q, [])] + [i]))
            last.update(dict.fromkeys(qubits, blocks[-1][1]))
        for q in last:
            last[q].extend(waiting.pop(q, []))
        return blocks + [((q,), idx) for q, idx in waiting.items()]

    @cached_property
    def block_moves(self) -> tuple[list, tuple]:
        # each block's move, and the move from 0..n-1 to the last's order
        moves, end = _moves(tuple(range(self.n)), [q for q, _ in self.blocks])
        return moves, _moves(tuple(range(self.n)), [end])[0][0]

    @cached_property
    def back(self) -> list:  # each gate's move in reverse running order
        return _moves(tuple(range(self.n)),
                      [q for _, q, _ in reversed(self.gates)])[0]


# the plans of the last 64 skeletons used, found by value: equal, copied
# and unpickled circuits share one
_plan = lru_cache(maxsize=64)(_Plan)


def _prepare(circuits: list[Circuit], params: dict,
             binary: bool = False) -> tuple:
    """The angle table (the values of ``params`` in its order, NaN, the
    literal angles), and each circuit's plan, shared by its skeleton, and
    slots.  Raises CapExceeded, UnboundSymbol for a symbol with no value,
    ValueError for a parameterised gate without an angle and, if
    ``binary``, for an outcome of more than one qubit."""
    index = dict(zip(params, range(len(params))))
    table = [*params.values(), np.nan]
    plans = []
    for c in circuits:
        if c.n_qubits > QUBIT_CAP:
            raise CapExceeded(f"{c.n_qubits} qubits exceed the cap of "
                              f"{QUBIT_CAP}")
        plans.append(_plan(c._skeleton))
        if binary and plans[-1].size != 2:
            raise ValueError("a binary label needs a 1-qubit output")
    if not circuits:
        return np.array(table), plans, []
    counts = [len(c._names) for c in circuits]
    sizes = [len(c._params) for c in circuits]
    names = itertools.chain.from_iterable([c._names for c in circuits])
    try:  # the place in ``params`` of each circuit's symbols, in turn
        where = np.fromiter(map(index.__getitem__, names), np.intp,
                            sum(counts))
    except KeyError as exc:
        raise UnboundSymbol(f"symbol {exc.args[0]!r} has no value") from None
    # a gate reads its symbol's place, past its circuit's first, or the NaN
    local = np.concatenate([c._params for c in circuits])
    first = np.repeat(np.cumsum(counts) - counts, sizes)
    rows = np.where(local >= 0, np.append(where, 0)[local + first],
                    len(params))
    ends = np.cumsum(sizes).tolist()
    slots = [rows[end - size:end] for end, size in zip(ends, sizes)]
    for c, row, plan in zip(circuits, slots, plans):
        for i, value in c._literals:
            row[i] = len(table)
            table.append(float(value))
        for i in plan.literal:
            if row[i] == len(params):
                raise ValueError(f"{plan.gates[i][0]} gate needs an angle")
    return np.array(table, dtype=float), plans, slots


class _Forward(NamedTuple):
    """One forward pass of a group with one plan: each row's angles, every
    gate's matrices, the final states, raw outcomes and successes."""
    thetas: np.ndarray
    matrices: list
    state: np.ndarray
    raw: np.ndarray
    success: np.ndarray


def _forward(plan: _Plan, thetas: np.ndarray) -> _Forward:
    """Run a group of one plan at its (B, G) angles from |0...0> as one
    stacked state and read it out; raises ZeroNorm when a postselected
    branch carries (numerically) no amplitude."""
    matrices = plan.matrices(thetas.T)
    # a parameterised gate whose angle every row shares applies one matrix
    for i in np.flatnonzero((thetas == thetas[0]).all(0)):
        if matrices[i].ndim == 3:
            matrices[i] = matrices[i][0]
    state = np.zeros((len(thetas), 2 ** plan.n), dtype=complex)
    state[:, 0] = 1.0
    for m, move in zip(matrices, plan.moves):
        state = _gate(state, m, move)
    state = _reorder(state, plan.moves[-1])
    probs = np.abs(state[:, plan.kept]) ** 2
    success = np.sum(probs, axis=1)
    if np.min(success) < 1e-30:
        raise ZeroNorm(
            f"postselection probability {np.min(success)} below 1e-30")
    bins = np.arange(len(thetas))[:, None] * plan.size + plan.outcome
    raw = np.bincount(bins.ravel(), weights=probs.ravel(),
                      minlength=len(thetas) * plan.size).reshape(-1, plan.size)
    return _Forward(thetas, matrices, state, raw, success)


def simulate(c: Circuit, params: dict) -> tuple[np.ndarray, float]:
    """Renormalized output distribution and postselection probability;
    raises ZeroNorm when the postselected branch carries (numerically) none."""
    table, [plan], [slots] = _prepare([c], params)
    fwd = _forward(plan, table[slots][None])
    return fwd.raw[0] / fwd.success[0], float(fwd.success[0])


# --- gradients --------------------------------------------------------------

GRADIENT_METHODS = ("parameter_shift", "adjoint")
_SHIFTS = np.array([np.pi / 2, -np.pi / 2])

# G(theta) = exp(-i theta P / 2), so dG/dtheta = -i/2 P G
_GENERATORS = {
    "Rx": _X,
    "Ry": np.array([[0, -1j], [1j, 0]]),
    "Rz": np.diag([1, -1]).astype(complex),
    "CRz": np.diag([0, 0, 0, -2]).astype(complex),
    "CRx": np.kron(np.diag([0, 1]), _X - _I),
}


def _widen(m: np.ndarray, on: tuple, qubits: tuple) -> np.ndarray:
    """A gate's matrix (or stack) on the qubits of its block."""
    if len(on) == len(qubits):
        return m
    wide = m[..., :, None, :, None] * _I[:, None, :] if on == qubits[:1] \
        else _I[:, None, :, None] * m[..., None, :, None, :]
    return wide.reshape(m.shape[:-2] + (4, 4))


def _fuse(plan: _Plan, fwd: _Forward, pairs: list, qubits: tuple,
          idx: list[int]) -> tuple:
    """A block's symbolic gates and matrix, and the variants (gates after)
    G(theta +- pi/2) (gates before) of its p symbolic gates, (B, 2p, d, d),
    from ``pairs``, each gate's matrices at its two shifted angles."""
    fused = np.eye(2 ** len(qubits))
    shifted, variants = [], np.zeros((len(fwd.thetas), 0) + fused.shape)
    for i in idx:
        _, on, symbolic = plan.gates[i]
        m = _widen(fwd.matrices[i], on, qubits)
        variants = m[..., None, :, :] @ variants
        if symbolic:
            shifted.append(i)
            variants = np.concatenate([variants, _widen(
                pairs[i], on, qubits) @ fused[..., None, :, :]], 1)
        fused = m @ fused
    return shifted, fused, variants


def gradient(c: Circuit, params: dict, dloss_ddist: np.ndarray,
             method: str = "parameter_shift") -> dict[str, float]:
    """Gradient, by symbol, of a loss with dL/d(normalized distribution)
    ``dloss_ddist`` = w.  With raw outcome probabilities r and success
    s = sum(r), dL = sum_o c_o dr_o, c_o = w_o/s - (w.r)/s^2: a diagonal
    observable, differentiated by shifting angles or by an adjoint sweep."""
    table, [plan], [slots] = _prepare([c], params)
    w = np.asarray(dloss_ddist, dtype=float)[None]
    grad = dict(zip(params, _gradient(
        plan, slots[None], table, _forward(plan, table[slots][None]), w,
        method)[0].tolist()))
    return {sym: grad[sym] for sym in sorted(c._names)}


def _gradient(plan: _Plan, slots: np.ndarray, table: np.ndarray,
              fwd: _Forward, dloss_ddist: np.ndarray, method: str):
    """The gradient over the angle table of each row's loss, (B, T), for a
    group of one plan with (B, G) ``slots``, one row of ``dloss_ddist``
    each, from the group's forward pass at ``table[slots]``."""
    rows, size = slots.shape[0], len(table)
    if method not in GRADIENT_METHODS:
        raise ValueError(f"unknown gradient method {method!r}")

    n = plan.n
    s = fwd.success[:, None]
    weights = dloss_ddist / s \
        - np.sum(dloss_ddist * fwd.raw, axis=1, keepdims=True) / s ** 2
    observable = np.zeros((rows, 2 ** n))
    observable[:, plan.kept] = weights[:, plan.outcome]
    # contrib[r, i]: gate i's term of row r's derivative by its symbol
    contrib = np.zeros((rows, len(plan.gates)))
    if method == "parameter_shift":
        # psi is the state before block k; its (B, 2 p_k, 2^n) stack of
        # shifted variants, one product from psi's moved copy, runs through
        # the later blocks to the observable, laid out in their last order
        pairs = plan.matrices(fwd.thetas.T[..., None] + _SHIFTS)
        blocks = [(*_fuse(plan, fwd, pairs, *block), move)
                  for block, move in zip(plan.blocks, plan.block_moves[0])]
        observable = _reorder(observable, plan.block_moves[1])
        psi = np.zeros((rows, 2 ** n), dtype=complex)
        psi[:, 0] = 1.0
        for k, (shifted, fused, variants, move) in enumerate(blocks):
            moved = _reorder(psi, move)
            if shifted:
                stack = (moved.reshape(rows, 1, -1, variants.shape[-1])
                         @ variants.swapaxes(-1, -2)).reshape(rows, -1, 2 ** n)
                for _, later, _, later_move in blocks[k + 1:]:
                    stack = _gate(stack, later, later_move)
                expect = (np.abs(stack) ** 2 @ observable[:, :, None])[..., 0]
                contrib[:, shifted] = (expect[:, ::2] - expect[:, 1::2]) / 2
            psi = _gate(moved, fused, None)
    else:
        # reverse sweep: uncompute psi and carry
        # lam = (later gates)^dag M psi, stacked as one (B, 2, 2^n) pair;
        # each gate adds 2 Re<lam|dG|psi_before> = Im<lam|P|psi_after>
        pair = np.stack([fwd.state, observable * fwd.state], axis=1)
        for i, move in zip(reversed(range(len(plan.gates))), plan.back):
            name, qubits, symbolic = plan.gates[i]
            pair = _reorder(pair, move)
            if symbolic:
                turned = pair[:, 0].reshape(-1, 2 ** len(qubits)) \
                    @ _GENERATORS[name].T
                contrib[:, i] = (pair[:, 1].conj()
                                 * turned.reshape(rows, -1)).sum(1).imag
            pair = _gate(pair, fwd.matrices[i].conj().swapaxes(-1, -2), None)
    # scatter-add each row's terms into their slots, in visiting order
    terms = plan.symbolic[::-1] if method == "adjoint" else plan.symbolic
    flat = np.arange(rows)[:, None] * size + slots[:, terms]
    return np.bincount(flat.ravel(), contrib[:, terms].ravel(),
                       rows * size).reshape(rows, size)

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
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.gradient not in GRADIENT_METHODS:
            raise ValueError(f"unknown gradient method {self.gradient!r}")


EPS = 1e-12
# a group's stacked state holds at most this many amplitudes, a wider one
# runs in chunks (the adjoint's stack twice, the shift rule's 2 p_k times)
STACK_AMPLITUDES = 2 ** QUBIT_CAP


def bce(p1: float, label: int) -> float:
    p1 = min(max(p1, EPS), 1 - EPS)
    return -(label * np.log(p1) + (1 - label) * np.log(1 - p1))


@dataclass
class History:
    rows: list[tuple[int, float, float, float]] = field(default_factory=list)

    def to_csv(self, path=None) -> None:
        """Write the rows as CSV to ``path``, or to stdout without one."""
        text = "epoch,train_loss,train_acc,test_acc\n" + "".join(
            f"{e},{l:.6f},{a:.4f},{t:.4f}\n" for e, l, a, t in self.rows)
        if path:
            write_text(path, text)
        else:
            sys.stdout.write(text)


def _forwards(picks, plans, slots, table):
    """Run the picked samples that share a plan as one stacked group, in
    chunks of at most STACK_AMPLITUDES amplitudes; yields (plan, positions
    in ``picks``, (B, G) slots, _Forward) per chunk."""
    groups: dict[_Plan, list[int]] = {}
    for pos, i in enumerate(picks):
        groups.setdefault(plans[i], []).append(pos)
    for plan, positions in groups.items():
        rows = max(1, STACK_AMPLITUDES >> plan.n)
        for start in range(0, len(positions), rows):
            chunk = positions[start:start + rows]
            group = np.array([slots[picks[pos]] for pos in chunk])
            yield plan, chunk, group, _forward(plan, table[group])


def _evaluate(picks, plans, slots, labels, table, grad_method) -> list:
    """Loss, correctness, gradient over the angle table and postselection
    success of each picked sample, in pick order."""
    results = [None] * len(picks)
    for plan, chunk, group, fwd in _forwards(picks, plans, slots, table):
        dists = fwd.raw / fwd.success[:, None]
        ys = np.array([labels[picks[pos]] for pos in chunk])
        # dL/d(distribution) of each row's binary cross entropy
        p1 = np.clip(dists[:, 1], EPS, 1 - EPS)
        dloss = np.stack([0 * p1, -ys / p1 + (1 - ys) / (1 - p1)], axis=1)
        grads = _gradient(plan, group, table, fwd, dloss, grad_method)
        for pos, dist, y, g, s in zip(chunk, dists, ys, grads, fwd.success):
            results[pos] = (bce(float(dist[1]), y),
                            int((dist[1] >= 0.5) == bool(y)), g, float(s))
    return results


def _score(picks, plans, slots, labels, table) -> tuple[float, np.ndarray]:
    """Accuracy (NaN for no picks) and, in pick order, postselection
    success of the picked samples, from their forward passes alone."""
    correct, success = 0, np.zeros(len(picks))
    for _, chunk, _, fwd in _forwards(picks, plans, slots, table):
        ys = np.array([labels[picks[pos]] for pos in chunk], dtype=bool)
        correct += int(np.sum((fwd.raw[:, 1] / fwd.success >= 0.5) == ys))
        success[chunk] = fwd.success
    return correct / len(picks) if len(picks) else float("nan"), success


def train(dataset: list[tuple[Circuit, int]],
          cfg: TrainConfig) -> tuple[dict[str, float], History]:
    """Adam on mean binary cross entropy over the 1-qubit output.  The
    dataset is shuffled and split 80/20 into train/test with the config
    seed; all circuits share one parameter vector (the union of their
    declared symbols, each at its first declared value).  Batches and the
    test split index into the plans and slots, prepared once.  An empty
    dataset is a ValueError, an empty test split a warning."""
    if not dataset:
        raise ValueError("no samples to train on")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(dataset))
    split = round(len(dataset) * 0.8)  # at least 1
    if split == len(dataset):
        log.warning("no sample held out: the test accuracy is NaN")
    train_set = order[:split]

    # the union in order of first declaration, then each symbol's first
    # declared value
    symbols: dict[str, float] = {}
    for circuit, _ in dataset:
        symbols.update(circuit.symbols)
    for circuit, _ in reversed(dataset):
        symbols.update(circuit.symbols)
    table, plans, slots = _prepare([c for c, _ in dataset], symbols, True)
    labels = [label for _, label in dataset]
    # a view: Adam's steps write the head of the table
    params = table[:len(symbols)]
    m, v = np.zeros(len(params)), np.zeros(len(params))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = History()

    for epoch in range(1, cfg.epochs + 1):
        batch_order = rng.permutation(len(train_set))
        losses, corrects, successes = [], 0, []
        for start in range(0, len(train_set), cfg.batch_size):
            picks = train_set[batch_order[start:start + cfg.batch_size]]
            loss, correct, grads, success = zip(*_evaluate(
                picks, plans, slots, labels, table, cfg.gradient))
            losses += loss
            corrects += sum(correct)
            successes += success
            step += 1
            g = sum(grads)[:len(params)] / len(picks)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            params -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        test_acc, held = _score(order[split:], plans, slots, labels, table)
        history.rows.append((epoch, float(np.mean(losses)),
                             corrects / len(train_set), test_acc))
        if log.isEnabledFor(logging.INFO):  # np.median imports numpy.ma
            stats = [f(s) if len(s) else np.nan for s in (successes, held)
                     for f in (np.min, np.median)]
            log.info("epoch %d: loss %.4f train_acc %.3f test_acc %.3f; "
                     "success train min %.3g p50 %.3g, test min %.3g p50 %.3g",
                     *history.rows[-1], *stats)
    return dict(zip(symbols, params.tolist())), history


def evaluate_accuracy(dataset, params) -> float:
    """The share of ``dataset``'s (circuit, label) pairs classified right
    at ``params``, NaN for none; raises like ``simulate``."""
    table, plans, slots = _prepare([c for c, _ in dataset], params, True)
    return _score(range(len(dataset)), plans, slots,
                  [label for _, label in dataset], table)[0]


def load_dataset(path) -> list[tuple[Circuit, int]]:
    """JSON-lines dataset: {"text_id", "label", "circuit" or "circuit_path"}
    per line, the label 0 or 1.  Raises FormatError naming the file if it
    cannot be read, is not UTF-8 or is empty, and naming the line for a
    line that is not a JSON object, a missing or other label, no circuit,
    a ``circuit_path`` that cannot be read or is not JSON, and a circuit
    ``circuit_from_json`` rejects or that reads out other than one qubit."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")  # the lines iterating f yields
    except OSError as exc:
        raise FormatError(f"cannot read: {exc.strerror}", str(path)) from None
    except ValueError as exc:
        raise FormatError(f"not UTF-8: {exc}", str(path)) from None
    out = []
    base = Path(path).parent
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        where = f"line {number}"
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise FormatError("not a JSON object")
            label = record.get("label")
            if label not in (0, 1):
                raise FormatError(f"label must be 0 or 1, got {label!r}")
            if "circuit" not in record and "circuit_path" not in record:
                raise FormatError(
                    'record has neither "circuit" nor "circuit_path"')
            data = record["circuit"] if "circuit" in record \
                else read_json(base / str(record["circuit_path"]))
            c = circuit_from_json(data)
            if len(c.readout) != 1:
                raise FormatError(f"{len(c.readout)}-qubit readout, not 1")
            out.append((c, int(label)))
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON: {exc}", where) from exc
        except FormatError as exc:
            inner = f", {exc.location}" if exc.location else ""
            raise FormatError(exc.message, where + inner) from None
    if not out:
        raise FormatError("no records", str(path))
    return out
