"""Pregroup types, diagrams and reduction checks.

A pregroup type is a sequence of simple types, each a base symbol with an
integer adjoint order ``z`` (negative for left adjoints, positive for right
adjoints).  A sentence is represented as a ``PregroupDiagram``: a list of
typed tokens plus a set of non-crossing cups contracting adjoint pairs.
A sentence is grammatical when the uncontracted wires reduce to a single
sentence wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidDiagram

BASES = ("n", "s", "t")


class _SimpleFields(NamedTuple):
    # a NamedTuple class may not define __new__, so SimpleType, which
    # checks its base there, subclasses this one
    base: str
    z: int = 0


class SimpleType(_SimpleFields):
    """A base grammar symbol with an adjoint order.

    ``z == 0`` is the plain type, ``z == -1`` its left adjoint and
    ``z == +1`` its right adjoint; higher |z| are iterated adjoints.
    """

    __slots__ = ()

    def __new__(cls, base: str, z: int = 0):
        if base not in BASES:
            raise ValueError(f"unknown base type {base!r}")
        return tuple.__new__(cls, (base, z))

    @property
    def l(self) -> "SimpleType":
        return SimpleType(self.base, self.z - 1)

    @property
    def r(self) -> "SimpleType":
        return SimpleType(self.base, self.z + 1)

    def __str__(self):
        if self.z == 0:
            return self.base
        suffix = (".l" if self.z < 0 else ".r") * abs(self.z)
        return self.base + suffix


def can_contract(a: SimpleType, b: SimpleType) -> bool:
    """True iff a cup may join ``a`` (left endpoint) to ``b`` (right)."""
    return a.base == b.base and b.z == a.z + 1


class PregroupType(tuple):
    """An ordered sequence of simple types; empty is the monoid unit."""

    __slots__ = ()

    def __new__(cls, factors: Iterable[SimpleType] = ()):
        return tuple.__new__(cls, factors)

    def __matmul__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(tuple.__add__(self, other))

    def __repr__(self):
        return f"PregroupType(factors={tuple(self)!r})"

    @property
    def l(self) -> "PregroupType":
        return PregroupType(t.l for t in reversed(self))

    @property
    def r(self) -> "PregroupType":
        return PregroupType(t.r for t in reversed(self))

    def __str__(self):
        return "@".join(map(str, self)) if self else "1"


N = SimpleType("n")
S = SimpleType("s")


def Ty(*factors: SimpleType) -> PregroupType:
    return PregroupType(factors)


@dataclass(frozen=True)
class PregroupDiagram:
    """Typed tokens plus non-crossing cups over global wire offsets.

    Wire offsets index the concatenation of all tokens' factors, left to
    right.  Each offset appears in at most one cup.  The wire layout
    (``wire_types``, ``wire_owners`` and ``free_wires``) follows from the
    tokens and cups: each is computed on its first read and kept.  A
    sentence's shape, all that parsing and tree building depend on, is
    ``(types, cups)``.
    """

    tokens: tuple[tuple[str, PregroupType], ...]
    cups: tuple[tuple[int, int], ...]

    def __init__(self, tokens, cups=()):
        object.__setattr__(self, "tokens", tuple([(w, t) for w, t in tokens]))
        object.__setattr__(self, "cups", tuple(sorted(
            [(i, j) if i <= j else (j, i) for i, j in cups])))

    @classmethod
    def _normal(cls, tokens: tuple, cups: tuple) -> "PregroupDiagram":
        """The diagram of a tuple of (word, type) pairs and cups that
        ``__init__`` has normalised: nothing is copied or sorted."""
        d = object.__new__(cls)
        d.__dict__.update(tokens=tokens, cups=cups)
        return d

    @property
    def types(self) -> tuple[PregroupType, ...]:
        return tuple([ty for _, ty in self.tokens])

    @cached_property
    def wire_types(self) -> tuple[SimpleType, ...]:
        return tuple(t for _, ty in self.tokens for t in ty)

    @cached_property
    def wire_owners(self) -> tuple[int, ...]:
        """The index of the token owning each wire."""
        return tuple(i for i, (_, ty) in enumerate(self.tokens) for _ in ty)

    @cached_property
    def free_wires(self) -> tuple[int, ...]:
        cupped = {w for cup in self.cups for w in cup}
        return tuple(w for w in range(len(self.wire_owners))
                     if w not in cupped)

    @property
    def words(self) -> tuple[str, ...]:
        return tuple([w for w, _ in self.tokens])


def _crossing_free(cups) -> bool:
    """True iff no two cups cross, i.e. no ``(i, j), (k, l)`` with
    ``i < k < j < l``.

    One pass over the cups by left endpoint, outer cup first on equal
    left endpoints, keeps a stack of the cups still open: each lies
    inside the one below it, so the new cup only needs comparing with
    the innermost open cup that ends after it starts.
    """
    stack: list[tuple[int, int]] = []
    for k, l in sorted(cups, key=lambda c: (c[0], -c[1])):
        while stack and stack[-1][1] <= k:
            stack.pop()
        if stack and stack[-1][0] < k and stack[-1][1] < l:
            return False
        stack.append((k, l))
    return True


def validate_diagram(d: PregroupDiagram) -> None:
    """Raise InvalidDiagram unless every cup is legal and no two cups
    cross; only a diagram with a crossing has its cup pairs checked one
    by one, to list them."""
    wires = d.wire_types
    illegal = []
    seen: dict[int, tuple[int, int]] = {}
    for cup in d.cups:
        i, j = cup
        if not (0 <= i < j < len(wires)) or not can_contract(wires[i], wires[j]):
            illegal.append(cup)
            continue
        if i in seen or j in seen:
            illegal.append(cup)
            continue
        seen[i] = seen[j] = cup
    crossings = []
    if not _crossing_free(d.cups):
        cups = sorted(set(d.cups))
        for a in range(len(cups)):
            for b in range(a + 1, len(cups)):
                (i, j), (k, l) = cups[a], cups[b]
                if i < k < j < l or k < i < l < j:
                    crossings.append((cups[a], cups[b]))
    if illegal or crossings:
        raise InvalidDiagram(
            f"illegal cups {tuple(illegal)}, crossings {tuple(crossings)}")
