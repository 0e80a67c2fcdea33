"""Circuit compilation: frame-free text diagrams to parameterised circuits.

Each wire gets a fixed number of qubits; noun states and boxes become
ansatz blocks (IQP or a hardware-efficient Rx/Rz/CRx pattern), spider
copies and merges become CX pairs with postselection.  Gates find a wire's
qubits by its id, so wire permutations are relabellings and compile to no
gates.  Parameters are named "<box>__<arity>__<idx>" so boxes of the
same word and width share weights; each block with fresh symbols draws
their values as one vector from the config's seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, FormatError, UnexpandedFrame
from .frames import Box, Frame, Identity, Par, Perm, Spider
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

    @property
    def readout(self) -> list[int]:
        """The qubits an outcome reads, most significant first: the
        outputs, by default every qubit not postselected (of at least one,
        as the simulator runs a circuit of none on one)."""
        post = {qubit for qubit, _ in self.postselect}
        return self.outputs or [q for q in range(max(self.n_qubits, 1))
                                if q not in post]


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


def append_merge_box(td: TextDiagram) -> TextDiagram:
    """Append the width-w merge box combining all wires into one.

    The compiler turns it into an ansatz block over every qubit followed
    by postselection of all but the last wire's qubits.
    """
    wires = tuple(s.chain_id for s in td.states)
    merge = Box(f"merge_{len(wires)}", wires, merge=True)
    return TextDiagram(td.states, td.layers + [merge])


def compile(td: TextDiagram, cfg: AnsatzConfig,
            cap: int = QUBIT_CAP) -> Circuit:
    """Lower a frame-free text diagram to a parameterised circuit."""
    q = cfg.qubits_per_wire
    block_fn = iqp_block if cfg.kind == "iqp" else sim4_block
    rng = np.random.default_rng(cfg.seed)

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

    # one gate list per block width, each symbolic gate's param its
    # symbol index
    layouts: dict[int, list[Gate]] = {}
    occurrences: dict[tuple[str, int], int] = {}

    def emit_block(name: str, qbs: list[int]):
        arity = len(qbs) // q
        if not cfg.share_parameters:
            occ = occurrences.get((name, arity), 0)
            occurrences[(name, arity)] = occ + 1
            if occ:
                name = f"{name}.{occ}"
        layout = layouts.get(len(qbs))
        if layout is None:
            layout = layouts[len(qbs)] = block_fn(
                len(qbs), cfg.layers, itertools.count())
        syms = [f"{name}__{arity}__{g.param}"
                for g in layout if g.param is not None]
        # a block's symbols are all fresh or all known: draw fresh values
        # in creation order, as one vector
        if syms[0] not in circuit.symbols:
            circuit.symbols.update(zip(
                syms, rng.uniform(0.0, 2 * np.pi, len(syms)).tolist()))
        circuit.gates += [
            Gate(g.name, tuple(map(qbs.__getitem__, g.qubits)),
                 None if g.param is None else syms[g.param])
            for g in layout]

    for state in td.states:
        emit_block(state.word, alloc(state.chain_id))

    def visit(el):
        if isinstance(el, Frame):
            raise UnexpandedFrame(
                f"frame {el.name!r} reached the compiler")
        if isinstance(el, Par):
            for sub in el.elements:
                visit(sub)
            return
        if isinstance(el, (Identity, Perm)):
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

    Raises FormatError for a missing field, an ``n_qubits`` that is not a
    non-negative integer, a symbol value that is not a finite number, an
    unknown gate, the wrong number of qubits for a gate, a parameterised
    gate without a parameter, a parameter that is neither a symbol name
    nor a finite number, a gate, postselect or output qubit that is not an
    integer in range or, within one gate, repeated, and a qubit
    postselected twice.
    """
    if not isinstance(data, dict):
        raise FormatError("a circuit must be a JSON object")
    try:
        c = Circuit(
            n_qubits=data["n_qubits"],
            gates=[Gate(g["name"], tuple(g["qubits"]), g.get("param"))
                   for g in data["gates"]],
            postselect=[tuple(p) for p in data.get("postselect", [])],
            symbols=dict(data.get("symbols", {})),
            outputs=list(data.get("outputs", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed circuit: {exc!r}") from exc
    if type(c.n_qubits) is not int or c.n_qubits < 0:
        raise FormatError(f"not a qubit count: {c.n_qubits!r}", "n_qubits")

    def finite(value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False

    for name, value in c.symbols.items():
        if not finite(value):
            raise FormatError(f"not a finite number: {value!r}",
                              f"symbols[{name!r}]")

    def check_qubits(qubits, where):
        for qb in qubits:
            if type(qb) is not int or not 0 <= qb < c.n_qubits:
                raise FormatError(
                    f"qubit {qb!r} is not one of 0..{c.n_qubits - 1}", where)

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
        if g.param is not None and not isinstance(g.param, str) \
                and not finite(g.param):
            raise FormatError(f"parameter {g.param!r} is neither a symbol "
                              "name nor a finite number", where)
    postselected = set()
    for i, p in enumerate(c.postselect):
        if len(p) != 2 or isinstance(p[1], bool) or p[1] not in (0, 1):
            raise FormatError(f"postselect entry {list(p)} is not "
                              "[qubit, 0 or 1]", f"postselect[{i}]")
        check_qubits(p[:1], f"postselect[{i}]")
        if p[0] in postselected:
            raise FormatError(f"qubit {p[0]} postselected twice",
                              f"postselect[{i}]")
        postselected.add(p[0])
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
