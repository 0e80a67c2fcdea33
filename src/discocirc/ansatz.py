"""Circuit compilation: expanded text diagrams to parameterised circuits.

Each wire gets a fixed number of qubits; noun states and boxes become
ansatz blocks (IQP or a hardware-efficient Rx/Rz/CRx pattern), spider
copies and merges become CX pairs with postselection.  Gates find a wire's
qubits by its id, so wire permutations are relabellings and compile to no
gates.  Parameters are named "<box>__<arity>__<idx>" so boxes of the
same word and width share weights; the fresh symbols draw their values,
in creation order, as one vector from the config's seed.

A circuit is stored as arrays, not as ``Gate`` objects: its skeleton, a
plain value (width, each gate's kind code and qubits, which gates take a
symbol, postselection and outputs) that equal circuits hold equal, plus
each gate's index into the circuit's symbol order and its literal
angles.  ``compile`` stamps each block from its width's template, kept
per process, mapping the template's qubits and symbols through the
block's; ``Circuit.gates`` is a view built on first read.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, FormatError, UnexpandedFrame
from .frames import Box, Frame, Identity, Par, Perm, Spider
from .compose import TextDiagram

log = logging.getLogger(__name__)

QUBIT_CAP = 14

PARAMETRIC_GATES = ("Rx", "Ry", "Rz", "CRz", "CRx")
GATE_ARITY = {"H": 1, "Rx": 1, "Ry": 1, "Rz": 1,
              "CX": 2, "SWAP": 2, "CRz": 2, "CRx": 2}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple
    param: object = None  # symbol name, literal radians, or None


_KINDS = tuple(GATE_ARITY)  # a gate kind's code is its index
_CODES = {name: code for code, name in enumerate(_KINDS)}


class _Skeleton(NamedTuple):
    """A circuit's gate skeleton: the width, each gate's kind code and two
    qubits (int32, -1 for none) and whether it takes a symbol, as bytes,
    the postselection and the outputs.  Equal skeletons compare and hash
    equal, so ``sim`` finds one plan for them by value."""

    n_qubits: int
    kinds: bytes
    qubits: bytes
    symbolic: bytes
    postselect: tuple
    outputs: tuple

    @property
    def readout(self) -> list[int]:
        """The qubits an outcome reads, most significant first: the
        outputs, by default every qubit not postselected."""
        post = {qubit for qubit, _ in self.postselect}
        return list(self.outputs) or [q for q in range(self.n_qubits)
                                      if q not in post]

    def columns(self) -> tuple[list[str], list[tuple]]:
        """Each gate's name, and each gate's qubits, in running order."""
        flat = iter(np.frombuffer(self.qubits, np.int32).tolist())
        return (list(map(_KINDS.__getitem__, self.kinds)),
                [(a,) if b < 0 else (a, b) for a, b in zip(flat, flat)])


def _columns(gates: list[Gate]) -> tuple[list, list]:
    """Each gate's kind code, and its two qubits (-1 for none) in a row."""
    for g in gates:
        if len(g.qubits) != GATE_ARITY.get(g.name):
            raise ValueError(f"{g.name!r} on {len(g.qubits)} qubit(s) is "
                             "not a gate")
    return ([_CODES[g.name] for g in gates],
            [q for g in gates for q in (*g.qubits, -1)[:2]])


class Circuit:
    """A parameterised circuit, kept as its own skeleton, each gate's
    index into ``_names`` (the distinct symbols in order of first use, -1
    for none), the literal angles as (gate, value) pairs, and ``symbols``,
    the declared values.  ``gates`` is a view of ``Gate`` values, built on
    first read.  A circuit is not changed once built."""

    def __init__(self, n_qubits: int, gates=(), postselect=(),
                 symbols: dict | None = None, outputs=()):
        gates, index = list(gates), {}
        params = [index.setdefault(g.param, len(index))
                  if isinstance(g.param, str) else -1 for g in gates]
        literals = tuple((i, g.param) for i, g in enumerate(gates)
                         if params[i] < 0 and g.param is not None)
        self._build(n_qubits, *_columns(gates), params, postselect, outputs,
                    tuple(index), {} if symbols is None else symbols,
                    literals)

    def _build(self, n_qubits, kinds, qubits, params, postselect, outputs,
               names, symbols, literals=()):
        self._params = np.array(params, dtype=np.int32)
        # the width and qubits as plain ints, which JSON can write
        self._skeleton = _Skeleton(
            int(n_qubits), bytes(kinds), np.array(qubits, np.int32).tobytes(),
            (self._params >= 0).tobytes(),
            tuple([(int(q), bit) for q, bit in postselect]),
            tuple(map(int, outputs)))
        self._names, self._literals, self.symbols = names, literals, symbols

    n_qubits = property(lambda self: self._skeleton.n_qubits)
    postselect = property(lambda self: list(self._skeleton.postselect))
    outputs = property(lambda self: list(self._skeleton.outputs))
    readout = property(lambda self: self._skeleton.readout)

    def _rows(self) -> list[tuple[str, tuple, object]]:
        """Each gate's (name, qubits, param), in running order."""
        # a gate without a symbol indexes the last entry, None
        params = list(map((*self._names, None).__getitem__,
                          self._params.tolist()))
        for i, value in self._literals:
            params[i] = value
        return list(zip(*self._skeleton.columns(), params))

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        return tuple([Gate(*row) for row in self._rows()])

    def __eq__(self, other) -> bool:
        def fields(c):
            return c.n_qubits, c.gates, c.postselect, c.symbols, c.outputs
        return type(other) is Circuit and fields(self) == fields(other)

    def __repr__(self) -> str:
        return (f"Circuit({self.n_qubits}, {list(self.gates)}, "
                f"{self.postselect}, {self.symbols}, {self.outputs})")


@dataclass(frozen=True)
class AnsatzConfig:
    kind: str = "iqp"  # a key of BLOCKS
    qubits_per_wire: int = 1
    layers: int = 1
    share_parameters: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.kind not in BLOCKS:
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


BLOCKS = {"iqp": iqp_block, "sim4": sim4_block}


def append_merge_box(td: TextDiagram) -> TextDiagram:
    """Append the width-w merge box combining all wires into one, if any.

    The compiler turns it into an ansatz block over every qubit followed
    by postselection of all but the last wire's qubits.
    """
    if not td.states:
        log.warning("no wires to merge: the circuit has no qubits")
        return td
    wires = tuple(s.chain_id for s in td.states)
    merge = Box(f"merge_{len(wires)}", wires, merge=True)
    return TextDiagram(td.states, td.layers + [merge])


@lru_cache(maxsize=256)
def _template(kind: str, width: int, layers: int) -> tuple:
    """A block's gates as ``_columns``, then each one's symbol index (-1
    for none, ``itertools.count()`` its symbols), as tuples, and its
    number of symbols; kept per process."""
    gates = BLOCKS[kind](width, layers, itertools.count())
    return (*map(tuple, _columns(gates)),
            tuple(-1 if g.param is None else g.param for g in gates),
            sum(g.param is not None for g in gates))


def compile(td: TextDiagram, cfg: AnsatzConfig,
            cap: int = QUBIT_CAP) -> Circuit:
    """Lower an expanded text diagram, every layer a Box, Spider or Perm
    as ``expand_frames`` leaves it, to a parameterised circuit."""
    q = cfg.qubits_per_wire
    n_qubits = 0
    qubits_of: dict[object, list[int]] = {}

    def alloc(wire) -> list[int]:
        nonlocal n_qubits
        qbs = list(range(n_qubits, n_qubits + q))
        n_qubits += q
        if n_qubits > cap:
            raise CapExceeded(f"{n_qubits} qubits exceed the cap of {cap}")
        qubits_of[wire] = qbs
        return qbs

    # each gate's kind code, two qubits (-1 for none) and symbol index (-1
    # for none), stamped from its block's template; each block's symbol
    # indices, by (name, arity), followed by -1
    kinds, qubits, params, names = [], [], [], []
    symbols_of: dict[tuple[str, int], list[int]] = {}
    occurrences: dict[tuple[str, int], int] = {}
    postselect: list[tuple[int, int]] = []

    def emit_block(name: str, qbs: list[int]):
        arity = len(qbs) // q
        if not cfg.share_parameters:
            occ = occurrences.get((name, arity), 0)
            occurrences[(name, arity)] = occ + 1
            if occ:
                name = f"{name}.{occ}"
        t_kinds, t_qubits, t_params, count = _template(
            cfg.kind, len(qbs), cfg.layers)
        # a block's symbols are all fresh or all known
        syms = symbols_of.get((name, arity))
        if syms is None:
            syms = symbols_of[(name, arity)] = [
                *range(len(names), len(names) + count), -1]
            names.extend(f"{name}__{arity}__{k}" for k in range(count))
        kinds.extend(t_kinds)
        qubits.extend(map((qbs + [-1]).__getitem__, t_qubits))
        params.extend(map(syms.__getitem__, t_params))

    for state in td.states:
        emit_block(state.word, alloc(state.chain_id))

    for el in td.layers:
        if isinstance(el, Box):
            qbs = [qb for w in el.wires for qb in qubits_of[w]]
            emit_block(el.name, qbs)
            if el.merge:
                postselect += [(qb, 0) for qb in qbs[:-q]]
                for w in el.wires[:-1]:
                    qubits_of.pop(w, None)
        elif isinstance(el, Spider):
            # a copy CXs onto fresh zeroed registers, a merge CXs and then
            # postselects the registers it absorbs
            src = qubits_of[el.out_wire if el.dagger else el.in_wires[0]]
            for wire in el.in_wires[1:]:
                dst = alloc(wire) if el.dagger else qubits_of.pop(wire)
                for qs, qd in zip(src, dst):
                    kinds.append(_CODES["CX"])
                    qubits += (qs, qd)
                    params.append(-1)
                    if not el.dagger:
                        postselect.append((qd, 0))
        elif isinstance(el, (Frame, Par, Identity)):
            raise UnexpandedFrame(f"unexpanded layer {el!r}")
        elif not isinstance(el, Perm):
            raise TypeError(f"cannot compile {el!r}")

    post = {qb for qb, _ in postselect}
    outputs = sorted(
        qb for qbs in qubits_of.values() for qb in qbs if qb not in post)
    c = Circuit.__new__(Circuit)
    # fresh symbols' values in creation order, as one vector
    c._build(n_qubits, kinds, qubits, params, postselect, outputs,
             tuple(names), dict(zip(names, np.random.default_rng(
                 cfg.seed).uniform(0.0, 2 * np.pi, len(names)).tolist())))
    return c


def circuit_to_json(c: Circuit) -> dict:
    return {
        "n_qubits": c.n_qubits,
        "gates": [
            {"name": name, "qubits": list(qubits)} if param is None
            else {"name": name, "qubits": list(qubits), "param": param}
            for name, qubits, param in c._rows()
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
        n_qubits = data["n_qubits"]
        gates = [Gate(g["name"], tuple(g["qubits"]), g.get("param"))
                 for g in data["gates"]]
        postselect = [tuple(p) for p in data.get("postselect", [])]
        symbols = dict(data.get("symbols", {}))
        outputs = list(data.get("outputs", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed circuit: {exc!r}") from exc
    if type(n_qubits) is not int or n_qubits < 0:
        raise FormatError(f"not a qubit count: {n_qubits!r}", "n_qubits")

    def finite(value) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            return False

    for name, value in symbols.items():
        if not finite(value):
            raise FormatError(f"not a finite number: {value!r}",
                              f"symbols[{name!r}]")

    def check_qubits(qubits, where):
        for qb in qubits:
            if type(qb) is not int or not 0 <= qb < n_qubits:
                raise FormatError(
                    f"qubit {qb!r} is not one of 0..{n_qubits - 1}", where)

    for i, g in enumerate(gates):
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
    for i, p in enumerate(postselect):
        if len(p) != 2 or isinstance(p[1], bool) or p[1] not in (0, 1):
            raise FormatError(f"postselect entry {list(p)} is not "
                              "[qubit, 0 or 1]", f"postselect[{i}]")
        check_qubits(p[:1], f"postselect[{i}]")
        if p[0] in postselected:
            raise FormatError(f"qubit {p[0]} postselected twice",
                              f"postselect[{i}]")
        postselected.add(p[0])
    check_qubits(outputs, "outputs")
    return Circuit(n_qubits, gates, postselect, symbols, outputs)


def dump_circuit(c: Circuit) -> str:
    """Flat text listing, one gate per line, for golden comparisons."""
    lines = [f"qubits {c.n_qubits}"]
    for name, qubits, param in c._rows():
        qbs = ",".join(map(str, qubits))
        lines.append(f"{name} {qbs}" if param is None
                     else f"{name} {qbs} {param}")
    for qb, bit in c.postselect:
        lines.append(f"postselect {qb}={bit}")
    lines.append("outputs " + ",".join(str(qb) for qb in c.outputs))
    return "\n".join(lines)
