"""Helpers shared by several test modules."""

import numpy as np
import pytest

from hrep.char_theory import LinearCharacter, residue_modulus
from hrep.errors import NotACharacter
from hrep.group_core import FiniteGroup


# The leaf types json.dumps renders; np.int64 and np.bool_ are not among
# them, and json.dumps raises on both.
PLAIN_LEAVES = (str, int, float, bool, type(None))


def assert_plain_json(value, path="report"):
    """Assert that every leaf of a report is a plain Python value and every
    key a str, so that rendering a failed check cannot crash."""
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r} is a {type(key).__name__}"
            assert_plain_json(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            assert_plain_json(item, f"{path}[{i}]")
    else:
        assert type(value) in PLAIN_LEAVES, f"{path}: {value!r} is a {type(value).__name__}"


def relabelled(group: FiniteGroup, sigma) -> FiniteGroup:
    """The same group with element x renamed sigma[x]: its Cayley table
    conjugated by the permutation sigma of the ids."""
    table = group.table
    inverse = {new: old for old, new in enumerate(sigma)}
    return FiniteGroup(
        [
            [sigma[table[inverse[x]][inverse[y]]] for y in range(group.order)]
            for x in range(group.order)
        ],
        label=group.label,
    )


@pytest.fixture(scope="session")
def relabel():
    return relabelled


def character(domain, values) -> LinearCharacter:
    """The linear character with these QmodZ values, one per member of
    ``domain`` in order, as residues mod the parent's N. A value whose
    order does not divide N has no residue and raises NotACharacter."""
    modulus = residue_modulus(domain.parent)
    on_parent = np.full(domain.parent.order, -1, dtype=np.int64)
    for member, q in zip(domain.members, values, strict=True):
        step, rest = divmod(modulus, q.den)
        if rest:
            raise NotACharacter(f"value {q} has order {q.den}, which does not divide N={modulus}")
        on_parent[member] = q.num * step
    return LinearCharacter(domain, on_parent)
