import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from discocirc import grammar
from discocirc.errors import InvalidDiagram
from discocirc.grammar import (N, PregroupDiagram, PregroupType, S,
                               SimpleType, Ty, can_contract,
                               validate_diagram)
from util import (free_types, parse_type, random_diagram,
                  random_loopy_diagram, validate_diagram_oracle, wires_of)

simple_types = st.builds(
    SimpleType,
    base=st.sampled_from("nst"),
    z=st.integers(min_value=-4, max_value=4),
)


def test_adjoint_round_trip_example():
    assert N.l.r == N
    assert S.r.l == S


@given(simple_types)
def test_adjoints_invert(t):
    assert t.l.r == t
    assert t.r.l == t


@given(simple_types)
def test_contraction_pairs(t):
    # t.l followed by t contracts, as does t followed by t.r
    assert can_contract(t.l, t)
    assert can_contract(t, t.r)
    assert not can_contract(t, t)


def test_contraction_needs_matching_base():
    assert not can_contract(N, SimpleType("s", 1))


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        SimpleType("x")


def test_type_parse_and_str_round_trip():
    for text in ("n", "n.r@s@n.l", "s@s.l", "n.l.l@s.r.r", "1"):
        assert str(parse_type(text)) == text


@given(st.lists(simple_types, max_size=5))
def test_type_adjoint_reverses(factors):
    ty = PregroupType(factors)
    assert list(ty.l) == [t.l for t in reversed(factors)]
    assert ty.l.r == ty


def test_concatenation():
    ty = Ty(N) @ Ty(S)
    assert list(ty) == [N, S]
    assert len(ty) == 2
    assert isinstance(ty, PregroupType)


def test_type_slices_and_factors():
    ty = parse_type("n.r@s@n.l")
    assert ty[1] == S and ty[-1] == N.l
    assert str(Ty()) == "1"
    copy = pickle.loads(pickle.dumps(ty))
    assert type(copy) is PregroupType and copy == ty
    assert type(copy[0]) is SimpleType
    with pytest.raises(ValueError):
        SimpleType("x", 1)


TRANSITIVE = parse_type("n.r@s@n.l")


def alice_reads_books():
    return PregroupDiagram(
        [("Alice", Ty(N)), ("reads", TRANSITIVE), ("books", Ty(N))],
        [(0, 1), (3, 4)])


def test_sentence_reduces_to_s():
    d = alice_reads_books()
    assert validate_diagram(d) is None
    assert str(free_types(d)) == "s"


def test_free_wires():
    assert alice_reads_books().free_wires == (2,)


def test_wire_ownership():
    d = alice_reads_books()
    assert d.wire_owners[0] == 0
    assert d.wire_owners[2] == 1
    assert wires_of(d, 1) == [1, 2, 3]


def test_illegal_cup_reported():
    d = PregroupDiagram(
        [("Alice", Ty(N)), ("reads", TRANSITIVE), ("books", Ty(N))],
        [(0, 2), (3, 4)])  # n against s cannot contract
    with pytest.raises(InvalidDiagram, match=re.escape(
            "illegal cups ((0, 2),), crossings ()")):
        validate_diagram(d)


def test_crossing_cups_reported():
    d = PregroupDiagram(
        [("a", Ty(N, N)), ("b", Ty(N.r, N.r))],
        [(0, 2), (1, 3)])
    with pytest.raises(InvalidDiagram, match=re.escape(
            "illegal cups (), crossings (((0, 2), (1, 3)),)")):
        validate_diagram(d)


def test_duplicate_wire_rejected():
    d = PregroupDiagram(
        [("a", Ty(N)), ("b", Ty(N.r, N.r)), ("c", Ty(N))],
        [(0, 1), (0, 2)])
    with pytest.raises(InvalidDiagram, match=re.escape(
            "illegal cups ((0, 2),), crossings ()")):
        validate_diagram(d)


def test_cups_stored_canonically():
    d = PregroupDiagram([("a", Ty(N)), ("b", Ty(N.r))], [(1, 0)])
    assert d.cups == ((0, 1),)


def test_wire_layout_is_stored_but_not_compared():
    d = alice_reads_books()
    assert d.wire_types == (N, N.r, S, N.l, N)
    assert d.wire_owners == (0, 1, 1, 1, 2)
    assert d.free_wires == (2,) and len(d.wire_types) == 5
    same = PregroupDiagram(list(d.tokens), [(4, 3), (1, 0)])
    assert same == d and hash(same) == hash(d) and same in [d]
    assert repr(same) == repr(d)
    for name in ("wire_types", "wire_owners", "free_wires"):
        assert name not in repr(d)
    other = PregroupDiagram(list(d.tokens), [(0, 1)])
    assert other != d and other.free_wires == (2, 3, 4)
    # a token of empty type owns no wire
    empty = PregroupDiagram(
        [("a", Ty(N)), ("e", Ty()), ("b", Ty(N.r, S))], [(0, 1)])
    assert empty.wire_owners == (0, 2, 2)
    assert [wires_of(empty, t) for t in range(3)] == [[0], [], [1, 2]]


def random_cup_set(rng: random.Random) -> PregroupDiagram:
    """Random types with random cups: crossing, nested, sharing an
    endpoint, repeated, illegal, degenerate or out of range."""
    types = [SimpleType(rng.choice("ns"), rng.randint(-1, 1))
             for _ in range(rng.randint(0, 9))]
    tokens, start = [], 0
    while start < len(types):
        k = rng.randint(0, 3)
        tokens.append((f"w{len(tokens)}",
                       PregroupType(types[start:start + k])))
        start += k
    span = len(types) + 1
    cups = [(rng.randint(-1, span), rng.randint(-1, span))
            for _ in range(rng.randint(0, 7))]
    if cups and rng.random() < 0.3:
        cups.append(rng.choice(cups))
    return PregroupDiagram(tokens, cups)


def test_crossing_check_matches_pairwise_oracle():
    rng = random.Random(7)
    cases = []
    for _ in range(1500):
        cases.append(random_diagram(rng)[0])
        cases.append(random_loopy_diagram(rng))
        cases.append(random_cup_set(rng))
    crossing = illegal = 0
    for d in cases:
        illegal_cups, crossing_pairs = validate_diagram_oracle(d)
        if illegal_cups or crossing_pairs:
            with pytest.raises(InvalidDiagram) as raised:
                validate_diagram(d)
            assert str(raised.value) == (f"illegal cups {illegal_cups}, "
                                         f"crossings {crossing_pairs}")
        else:
            assert validate_diagram(d) is None
        assert grammar._crossing_free(d.cups) == (not crossing_pairs)
        crossing += bool(crossing_pairs)
        illegal += bool(illegal_cups)
    assert crossing >= 300 and illegal >= 300
    assert len(cases) - crossing >= 3000


def test_pickled_type_hashes_in_another_process():
    # str hashes differ between processes, so a type pickled in one must
    # hash by its factors in another
    ty = Ty(N.r, S, N.l)
    blob = pickle.dumps({ty: "verb"})
    code = ("import pickle, sys; from discocirc.grammar import N, S, Ty; "
            "d = pickle.loads(sys.stdin.buffer.read()); "
            "print(d[Ty(N.r, S, N.l)])")
    src = os.path.dirname(os.path.dirname(grammar.__file__))
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", code], input=blob, capture_output=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                             "PYTHONPATH": src})
        assert out.stdout.decode().strip() == "verb"
