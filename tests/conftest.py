"""Helpers shared by several test modules."""

import pytest

from hrep.group_core import FiniteGroup


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
