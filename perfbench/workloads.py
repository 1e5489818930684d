"""The benchmark's workloads: fixed lists of ``hrep`` commands.

A command is ``(verb, group, extra argv)``.  ``group`` is a zoo name in
the CLI's ``--builtin`` syntax; ``build_group`` makes it from the
library's public constructors, and ``run.py`` turns it into a relabelled
``--input`` file, so the program only ever sees generated Cayley tables.
``group`` is ``None`` for ``p3``, which takes no group and runs unchanged.
"""

from __future__ import annotations

from typing import NamedTuple


class Command(NamedTuple):
    verb: str
    group: str | None
    extra: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Stable name used for pinned digests and summaries."""
        return " ".join([self.verb] + ([self.group] if self.group else []) + list(self.extra))


class Workload(NamedTuple):
    name: str
    why: str
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-nonabelian",
            "verify on nonabelian groups: every eps case, dims 2-4 and the sampled path; "
            "determinant routes, twists and character extension dominate",
            tuple(
                Command("verify", g)
                for g in (
                    "d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8",
                    "heis4", "prod:d8,d8", "d128",
                )
            ),
        ),
        Workload(
            "verify-abelian",
            "verify on elementary and homocyclic abelian groups: dimension-1 pairs and "
            "hundreds of coabelian subgroups, so transfer checks dominate",
            tuple(
                Command("verify", g)
                for g in ("ab:2,2,2,2", "ab:4,4", "ab:3,3,3", "ab:2,2,2,2,2")
            ),
        ),
        Workload(
            "structure",
            "group-info, heisenberg and p3 up to order 343: abelian decomposition, subgroup "
            "and isotropic enumeration, table validation; no transfer or direct determinant",
            (
                Command("group-info", "ab:2,2,2,2,2,2"),
                Command("group-info", "heis7"),
                Command("heisenberg", "heis7", ("--max-order", "512")),
                Command("heisenberg", "es_p3_exp_p2:7", ("--max-order", "512")),
                Command("heisenberg", "prod:q8,c16"),
                Command("p3", None, ("5",)),
                Command("p3", None, ("7",)),
            ),
        ),
    )
}


def build_group(hrep, name: str):
    """The group a zoo name such as ``d8``, ``cp:d8,q8`` or ``ab:2,2`` denotes."""
    family, _, args = name.partition(":")
    if family == "cp":
        return hrep.central_product(*(build_group(hrep, f) for f in args.split(",")))
    if family == "prod":
        return hrep.direct_product(*(build_group(hrep, f) for f in args.split(",")))
    if family == "ab":
        return hrep.abelian_group([int(m) for m in args.split(",")])
    if family == "es_p3_exp_p2":
        return hrep.extraspecial_p3_exp_p2(int(args))
    if name == "q8":
        return hrep.quaternion8()
    if name.startswith("heis"):
        return hrep.heisenberg_mod(int(name[4:]))
    constructors = {"c": hrep.cyclic, "d": hrep.dihedral}
    return constructors[name[0]](int(name[1:]))
