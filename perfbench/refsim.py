"""Reference statevector simulator used to check discocirc.sim.

It shares no code with the program: the gate matrices are written out in
closed form here and gates are applied with ``numpy.tensordot``.  It
reads only the plain fields of a ``Circuit`` (``n_qubits``, ``gates``,
``postselect``, ``outputs``).  Qubit 0 is the most significant bit, as in
the program.
"""

from __future__ import annotations

import numpy as np

_S2 = 1 / np.sqrt(2)


def _matrix(name: str, theta) -> np.ndarray:
    if name == "H":
        return np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex)
    if name == "CX":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    if name == "SWAP":
        return np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if name == "Rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "Ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "Rz":
        return np.array([[c - 1j * s, 0], [0, c + 1j * s]])
    phase = np.exp(1j * theta)
    if name == "CRz":
        # controlled phase on |11>, the program's convention
        return np.diag([1, 1, 1, phase]).astype(complex)
    if name == "CRx":
        # the same phase taken in the target's X basis
        a, b = (1 + phase) / 2, (1 - phase) / 2
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, a, b], [0, 0, b, a]])
    raise ValueError(f"reference simulator has no gate {name!r}")


def distribution(circuit, params: dict) -> tuple[np.ndarray, float]:
    """Renormalised output distribution and postselection probability."""
    n = max(circuit.n_qubits, 1)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in circuit.gates:
        theta = None
        if gate.param is not None:
            theta = (params[gate.param] if isinstance(gate.param, str)
                     else float(gate.param))
        k = len(gate.qubits)
        m = _matrix(gate.name, theta).reshape((2,) * (2 * k))
        psi = np.tensordot(m, psi, axes=(list(range(k, 2 * k)),
                                         list(gate.qubits)))
        # tensordot puts the gate's output axes first; move them back
        rest = [q for q in range(n) if q not in gate.qubits]
        psi = np.transpose(psi, np.argsort(list(gate.qubits) + rest))
    select = [slice(None)] * n
    for qubit, bit in circuit.postselect:
        select[qubit] = bit
    probs = np.abs(psi[tuple(select)]) ** 2
    success = float(probs.sum())
    kept = [q for q in range(n)
            if q not in {p for p, _ in circuit.postselect}]
    outputs = list(circuit.outputs) or kept
    axes = [kept.index(q) for q in outputs]
    others = tuple(i for i in range(len(kept)) if i not in axes)
    marginal = probs.sum(axis=others) if others else probs
    # marginal axes follow ascending kept order; reorder to ``outputs``
    order = np.argsort(np.argsort(axes))
    marginal = np.transpose(marginal, order).reshape(-1)
    return marginal / success, success


def fd_gradient(circuit, params: dict, weights: np.ndarray, symbols,
                step: float = 1e-3) -> dict[str, float]:
    """d(weights . distribution)/d symbol for each of ``symbols``, by the
    fourth-order central difference."""
    def loss(p):
        return float(np.dot(weights, distribution(circuit, p)[0]))

    grad = {}
    for sym in symbols:
        at = {}
        for k in (-2, -1, 1, 2):
            shifted = dict(params)
            shifted[sym] = params[sym] + k * step
            at[k] = loss(shifted)
        grad[sym] = (at[-2] - 8 * at[-1] + 8 * at[1] - at[2]) / (12 * step)
    return grad
