"""Circuit compilation: frame-free text diagrams to parameterised circuits.

Each wire gets a fixed number of qubits; noun states and boxes become
ansatz blocks (IQP or a hardware-efficient Rx/Rz/CRx pattern), spider
copies and merges become CX pairs with postselection.  Gates find a wire's
qubits by its id, so wire permutations are relabellings and compile to no
gates.  Parameters are named "<box>__<arity>__<idx>"
so boxes of the same word and width share weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, FormatError, UnexpandedFrame
from .frames import Box, Frame, Identity, Par, Perm, Seq, Spider
from .compose import TextDiagram

QUBIT_CAP = 14

PARAMETRIC_GATES = ("Rx", "Ry", "Rz", "CRz", "CRx")
GATE_ARITY = {"H": 1, "Rx": 1, "Ry": 1, "Rz": 1,
              "CX": 2, "SWAP": 2, "CRz": 2, "CRx": 2}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple
    param: object = None  # symbol name, literal radians, or None


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    postselect: list[tuple[int, int]] = field(default_factory=list)
    symbols: dict[str, float] = field(default_factory=dict)
    outputs: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class AnsatzConfig:
    kind: str = "iqp"  # or "sim4"
    qubits_per_wire: int = 1
    layers: int = 1
    share_parameters: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("iqp", "sim4"):
            raise ValueError(f"unknown ansatz {self.kind!r}")
        if self.qubits_per_wire < 1 or self.layers < 1:
            raise ValueError("qubits_per_wire and layers must be >= 1")


def iqp_block(n: int, L: int, symbols: list[str]) -> list[Gate]:
    """L layers of Hadamards followed by adjacent CRz gates.

    Uses L(n-1) symbols for n >= 2; a lone qubit, which the layered
    pattern cannot parameterise, gets an Rx-Rz-Rx triple instead (3
    symbols regardless of L).
    """
    gates = []
    it = iter(symbols)
    if n == 1:
        for name in ("Rx", "Rz", "Rx"):
            gates.append(Gate(name, (0,), next(it)))
        return gates
    for _ in range(L):
        for qb in range(n):
            gates.append(Gate("H", (qb,)))
        for qb in range(n - 1):
            gates.append(Gate("CRz", (qb, qb + 1), next(it)))
    return gates


def sim4_block(n: int, L: int, symbols: list[str]) -> list[Gate]:
    """L layers of Rx and Rz on every qubit followed by adjacent CRx
    gates; L(3n-1) symbols."""
    gates = []
    it = iter(symbols)
    for _ in range(L):
        for qb in range(n):
            gates.append(Gate("Rx", (qb,), next(it)))
        for qb in range(n):
            gates.append(Gate("Rz", (qb,), next(it)))
        for qb in range(n - 1):
            gates.append(Gate("CRx", (qb, qb + 1), next(it)))
    return gates


def block_symbol_count(kind: str, n: int, L: int) -> int:
    if kind == "iqp":
        return 3 if n == 1 else L * (n - 1)
    return L * (3 * n - 1)


def append_merge_box(td: TextDiagram) -> TextDiagram:
    """Append the width-w merge box combining all wires into one.

    The compiler turns it into an ansatz block over every qubit followed
    by postselection of all but the last wire's qubits.
    """
    wires = tuple(sorted(td.chain_order, key=td.chain_order.get))
    merge = Box(f"merge_{len(wires)}", wires, merge=True)
    return TextDiagram(td.states, td.layers + [merge],
                       dict(td.chain_order))


class _SymbolTable:
    def __init__(self, cfg: AnsatzConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.values: dict[str, float] = {}
        self.occurrences: dict[tuple[str, int], int] = {}

    def block(self, name: str, n_qubits: int) -> list[str]:
        """Symbol names for one block occurrence, minting values for
        fresh symbols in creation order."""
        arity = n_qubits // self.cfg.qubits_per_wire
        if not self.cfg.share_parameters:
            occ = self.occurrences.get((name, arity), 0)
            self.occurrences[(name, arity)] = occ + 1
            if occ:
                name = f"{name}.{occ}"
        count = block_symbol_count(self.cfg.kind, n_qubits, self.cfg.layers)
        names = [f"{name}__{arity}__{i}" for i in range(count)]
        for sym in names:
            if sym not in self.values:
                self.values[sym] = float(self.rng.uniform(0.0, 2 * np.pi))
        return names


def compile(td: TextDiagram, cfg: AnsatzConfig,
            cap: int = QUBIT_CAP) -> Circuit:
    """Lower a frame-free text diagram to a parameterised circuit."""
    q = cfg.qubits_per_wire
    block_fn = iqp_block if cfg.kind == "iqp" else sim4_block
    table = _SymbolTable(cfg)

    circuit = Circuit(n_qubits=0)
    qubits_of: dict[object, list[int]] = {}

    def alloc(wire) -> list[int]:
        qbs = list(range(circuit.n_qubits, circuit.n_qubits + q))
        circuit.n_qubits += q
        if circuit.n_qubits > cap:
            raise CapExceeded(
                f"{circuit.n_qubits} qubits exceed the cap of {cap}")
        qubits_of[wire] = qbs
        return qbs

    def emit_block(name: str, qbs: list[int]):
        syms = table.block(name, len(qbs))
        for g in block_fn(len(qbs), cfg.layers, syms):
            circuit.gates.append(
                Gate(g.name, tuple(qbs[i] for i in g.qubits), g.param))

    for state in td.states:
        emit_block(state.word, alloc(state.chain_id))

    def visit(el):
        if isinstance(el, Frame):
            raise UnexpandedFrame(
                f"frame {el.name!r} reached the compiler")
        if isinstance(el, (Seq, Par)):
            for sub in el.elements:
                visit(sub)
            return
        if isinstance(el, (Identity, Perm)) or el is None:
            return
        if isinstance(el, Spider):
            if el.dagger:  # copy: CX onto fresh zeroed registers
                src = qubits_of[el.out_wire]
                for wire in el.in_wires[1:]:
                    dst = alloc(wire)
                    for qs, qd in zip(src, dst):
                        circuit.gates.append(Gate("CX", (qs, qd)))
            else:  # merge: CX then postselect the absorbed registers
                src = qubits_of[el.in_wires[0]]
                for wire in el.in_wires[1:]:
                    dst = qubits_of.pop(wire)
                    for qs, qd in zip(src, dst):
                        circuit.gates.append(Gate("CX", (qs, qd)))
                        circuit.postselect.append((qd, 0))
            return
        if isinstance(el, Box):
            qbs = [qb for w in el.wires for qb in qubits_of[w]]
            emit_block(el.name, qbs)
            if el.merge:
                for qb in qbs[:-q]:
                    circuit.postselect.append((qb, 0))
                for w in el.wires[:-1]:
                    qubits_of.pop(w, None)
            return
        raise TypeError(f"cannot compile {el!r}")

    for layer in td.layers:
        visit(layer)

    post = {qb for qb, _ in circuit.postselect}
    circuit.outputs = sorted(
        qb for qbs in qubits_of.values() for qb in qbs if qb not in post)
    circuit.symbols = table.values
    return circuit


def circuit_to_json(c: Circuit) -> dict:
    return {
        "n_qubits": c.n_qubits,
        "gates": [
            {"name": g.name, "qubits": list(g.qubits),
             **({"param": g.param} if g.param is not None else {})}
            for g in c.gates
        ],
        "postselect": [list(p) for p in c.postselect],
        "symbols": dict(c.symbols),
        "outputs": list(c.outputs),
    }


def circuit_from_json(data: dict) -> Circuit:
    """Read a circuit written by ``circuit_to_json``.

    Raises FormatError for a missing field, an unknown gate, the wrong
    number of qubits for a gate, a parameterised gate without a parameter,
    and a gate, postselect or output qubit that is out of range or, within
    one gate, repeated.
    """
    try:
        c = Circuit(
            n_qubits=int(data["n_qubits"]),
            gates=[Gate(g["name"], tuple(g["qubits"]), g.get("param"))
                   for g in data["gates"]],
            postselect=[tuple(p) for p in data.get("postselect", [])],
            symbols=dict(data.get("symbols", {})),
            outputs=list(data.get("outputs", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed circuit: {exc!r}") from exc

    def check_qubits(qubits, where):
        for qb in qubits:
            if not isinstance(qb, int) or not 0 <= qb < c.n_qubits:
                raise FormatError(
                    f"qubit {qb!r} outside 0..{c.n_qubits - 1}", where)

    for i, g in enumerate(c.gates):
        where = f"gates[{i}]"
        if g.name not in GATE_ARITY:
            raise FormatError(f"unknown gate {g.name!r}", where)
        if len(g.qubits) != GATE_ARITY[g.name]:
            raise FormatError(f"{g.name} acts on {GATE_ARITY[g.name]} "
                              f"qubit(s), got {list(g.qubits)}", where)
        check_qubits(g.qubits, where)
        if len(set(g.qubits)) != len(g.qubits):
            raise FormatError(f"repeated qubit in {list(g.qubits)}", where)
        if g.name in PARAMETRIC_GATES and g.param is None:
            raise FormatError(f"{g.name} needs a parameter", where)
    for i, p in enumerate(c.postselect):
        if len(p) != 2 or p[1] not in (0, 1):
            raise FormatError(f"postselect entry {list(p)} is not "
                              "[qubit, 0 or 1]", f"postselect[{i}]")
        check_qubits(p[:1], f"postselect[{i}]")
    check_qubits(c.outputs, "outputs")
    return c


def dump_circuit(c: Circuit) -> str:
    """Flat text listing, one gate per line, for golden comparisons."""
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        qbs = ",".join(str(qb) for qb in g.qubits)
        lines.append(f"{g.name} {qbs}" + (f" {g.param}" if g.param is not None
                                          else ""))
    for qb, bit in c.postselect:
        lines.append(f"postselect {qb}={bit}")
    lines.append("outputs " + ",".join(str(qb) for qb in c.outputs))
    return "\n".join(lines)
