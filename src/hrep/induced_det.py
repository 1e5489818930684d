"""Exact determinants of induced monomial representations.

Three independent routes to det(rho)(g) are implemented and cross-checked:

* direct: induce a character extension chi_H from a maximal isotropic H
  to a d x d monomial matrix and take its determinant (permutation sign
  times the product of the root-of-unity entries);
* Gallagher: Delta_H(g) * chi_H(T_{G/H}(g)), sign of the coset
  permutation times the character of the transfer value;
* closed form: eps(g) * chi(g^d), where eps is trivial unless
  rk_2(G/Z) = 2, in which case it is the sign function on the Klein
  quotient G/G^2Z that is + on the trivial coset and - elsewhere.

Every determinant is an N-th root of unity for N = lcm(exp(G), 2), so
each route's table is an int64 array of residues mod N over the group's
elements, and the sign -1 is N/2. Each route has one implementation, a
whole-group gather on residues: ``direct_table`` sums chi_H over the coset
skeleton's factors, ``gallagher_table`` reads chi_H at the checked
transfer table (``transfer.transfer_table``), and the closed form gathers
chi's residues at the d-th powers of every element. The first two take
one extension chi_H or the stack of all of them, one gather per call. Each call checks the extensions once,
and no route reads another's table.

Twists, the sign table, the sign defect, the determinant's
multiplicativity, every route comparison and the determinant report
(``DetReport``, its five residue tables) run on these residue arrays. A
report prints a residue as its exponent, read from one shared table per
N. The closed form requires a kernel-reduced pair and refuses anything
else, making the reduction step explicit in the API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .char_theory import (
    LinearCharacter,
    _exponent_texts,
    extend_character_all,
    residue_modulus,
    whole_group_witness,
)
from .errors import (
    IdentityFailed,
    InvalidPrime,
    KernelNotReduced,
    NotACharacter,
    NotAnExtension,
    PreconditionFailed,
    math_check as _math_check,
)
from .group_core import (
    CosetSkeleton,
    Subgroup,
    _is_prime,
    extraspecial_p3_exp_p2,
    heisenberg_mod,
)
from .heisenberg import HeisenbergPair, enumerate_pairs
from .transfer import CheckReport, correcting_function, miller_lift, transfer_table


# -- induced representations ----------------------------------------------------


def _require_extension(pair: HeisenbergPair, sub: Subgroup, rows: np.ndarray) -> None:
    if rows.shape[-1] != pair.group.order or ((rows < 0) == sub.mask).any():
        raise NotAnExtension("character is not defined exactly on H")
    off = np.flatnonzero((rows != pair.chi.residues) & pair.Z.mask)
    if off.size:
        raise NotAnExtension(f"character disagrees with chi at {off[0] % pair.group.order}")


def _require_isotropic(pair: HeisenbergPair, sub: Subgroup) -> None:
    if not sub.contains_subgroup(pair.Z) or sub.index() != pair.dim:
        raise PreconditionFailed("H must contain Z with index dim in G")
    # X(a, b) = chi([a, b]) must vanish on H x H
    commutators = pair.group.commutator_table(sub.members, sub.members)
    bad = np.argwhere(pair.chi.residues[commutators] != 0)
    if bad.size:
        i, j = bad[0].tolist()
        raise PreconditionFailed(f"H is not isotropic at ({sub.members[i]},{sub.members[j]})")


def _direct_residues(skeleton: CosetSkeleton, rows: np.ndarray, n: int) -> np.ndarray:
    """The direct route's kernel: for every g, the sign of its coset
    permutation plus chi_H summed over its monomial entries, mod n.

    ``rows`` holds chi_H's residues by parent id, or a stack of such rows
    with one table each; only their values on H are read. The sum adds d
    whole rows of n (the factors transposed), not n short runs of d.
    """
    return (skeleton.odd * (n // 2) + np.take(rows, skeleton.factors.T, axis=-1).sum(axis=-2)) % n


def direct_table(pair: HeisenbergPair, sub: Subgroup, rows: np.ndarray) -> np.ndarray:
    """The direct route: the determinant of every induced monomial matrix,
    the permutation sign plus the sum of its entries, as residues mod N:
    one table per row of ``rows``, one extension chi_H's residues by parent
    id or a stack of them such as ``extend_character_all`` returns.
    """
    _require_extension(pair, sub, rows)
    return _direct_residues(pair.group.coset_skeleton(sub), rows, residue_modulus(pair.group))


def gallagher_table(pair: HeisenbergPair, sub: Subgroup, rows: np.ndarray) -> np.ndarray:
    """Gallagher's route: Delta_H(g) + chi_H(T_{G/H}(g)) for every g, as
    residues mod N, with Delta_H the sign of g's coset permutation, for
    ``rows`` as in ``direct_table``. T_{G/H} is ``transfer_table``'s
    homomorphism-checked table, the one that the transfer checks verify;
    each value is the least id of its [H,H]-coset, a well-defined
    argument because chi_H kills [H,H].
    """
    _require_extension(pair, sub, rows)
    group = pair.group
    n = residue_modulus(group)
    transfers = transfer_table(group, sub)
    return (group.coset_skeleton(sub).odd * (n // 2) + np.take(rows, transfers, axis=-1)) % n


# -- the closed form -------------------------------------------------------------


def _require_reduced(pair: HeisenbergPair) -> None:
    if not pair.is_reduced:
        raise KernelNotReduced(
            "closed-form determinants need a faithful scalar character; "
            "reduce with quotient_by_kernel first"
        )


def _formula_residues(pair: HeisenbergPair, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """The closed form's (det, eps) for every g, as residues mod ``modulus``
    (a multiple of the group's N), from one array of d-th powers: det(g)
    = eps(g) + chi(g^d), where eps is trivial when rk_2(G/Z) is 0 or at
    least 4, and - exactly off the subgroup G^2 Z when it is 2."""
    _require_reduced(pair)
    group = pair.group
    powers = group.powers(pair.dim)
    off = np.flatnonzero(~pair.Z.mask[powers])
    if off.size:
        raise IdentityFailed(f"g^d must be central, failed at g={int(off[0])}")
    step, rest = divmod(modulus, residue_modulus(group))
    _math_check(rest == 0, f"residue modulus {modulus} must be a multiple of the group's N")
    # eps is - exactly off G^2 Z when rk2 = 2, and trivial otherwise
    eps = np.zeros(group.order, dtype=np.int64)
    if pair.two_rank == 2:
        eps[:] = modulus // 2
        eps[list(pair.squares_times_z.members)] = 0
    return (eps + pair.chi.residues[powers] * step) % modulus, eps


def _text(residue, modulus: int) -> str:
    """The report form of a residue: its reduced exponent."""
    return _exponent_texts(modulus)[int(residue) % modulus]


def epsilon_table(pair: HeisenbergPair, sub: Subgroup) -> np.ndarray:
    """eps(g) = Delta_H(g) + chi(phi_{G/H}(g)) for a maximal isotropic H,
    as residues mod N (0 or N/2).

    Verifies that the values are signs, constant on G^2 Z cosets, and
    satisfy the sign-defect identity
    eps(g1) + eps(g2) - eps(g1 g2) = (d/2) * X(g1, g2) for even d
    (for odd d the table is identically trivial).
    """
    _require_reduced(pair)
    _require_isotropic(pair, sub)
    group = pair.group
    n = residue_modulus(group)
    chi = pair.chi.residues
    cf = correcting_function(group, sub)
    table = (group.coset_skeleton(sub).odd * (n // 2) + chi[cf.values]) % n
    not_sign = np.flatnonzero((table != 0) & (table != n // 2))
    if not_sign.size:
        raise IdentityFailed(f"eps({not_sign[0]}) is not a sign")

    # each coset's first element is its minimal id, its representative
    reps, pos = group.coset_positions(pair.squares_times_z)
    moved = np.flatnonzero(table != table[reps[pos]])
    if moved.size:
        raise IdentityFailed(f"eps is not constant on the G^2 Z coset of {moved[0]}")

    d = pair.dim
    if d % 2 == 1:
        _math_check(not table.any(), "eps must be trivial for odd dim")
        return table
    # X(g1, g2) = chi([g1, g2]) with [G,G] inside Z
    lhs = (table[:, None] + table[None, :] - table[group.table]) % n
    rhs = (d // 2) * chi[group.commutator_table(group.elements(), group.elements())] % n
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        g1, g2 = bad[0].tolist()
        raise IdentityFailed(
            f"sign defect identity fails at ({g1},{g2}): "
            f"{_text(lhs[g1, g2], n)} != {_text(rhs[g1, g2], n)}"
        )
    return table


def isotropic_independence(pair: HeisenbergPair) -> CheckReport:
    """The determinant character does not depend on the maximal isotropic
    or on the chosen character extension.

    Also verifies the reformulation det(g) = chi(g^d) + X(g, alpha_{G/H})
    for every maximal isotropic H and every g in H, with alpha the product
    over G/H; the isotropics must cover G, so every g is placed.
    """
    _require_reduced(pair)
    group = pair.group
    n = residue_modulus(group)
    chi = pair.chi.residues
    powers = group.powers(pair.dim)
    reference: np.ndarray | None = None
    n_tables = 0
    report = CheckReport(
        "isotropic_independence",
        True,
        stats={"group": group.label, "dim": pair.dim, "n_isotropics": len(pair.maximal_isotropics)},
    )
    for sub in pair.maximal_isotropics:
        family = extend_character_all(group, pair.chi, sub)
        n_tables += len(family)
        tables = direct_table(pair, sub, family)
        if reference is None:
            reference = tables[0]
        off = tables != reference
        for i in np.flatnonzero(off.any(axis=1)).tolist():
            g = int(off[i].argmax())
            report.fail(g=g, lhs=_text(tables[i, g], n), rhs=_text(reference[g], n))

        # placement reformulation through the Miller product of G/H
        alpha_lift = miller_lift(group, sub)
        h = np.asarray(sub.members)
        expected = (chi[powers[h]] + chi[group.commutator_table(h, [alpha_lift])[:, 0]]) % n
        for g, want in zip(h.tolist(), expected.tolist()):
            if reference[g] != want:
                report.fail(
                    g=g,
                    H=list(sub.members),
                    lhs=_text(reference[g], n),
                    rhs=_text(want, n),
                    identity="miller",
                )
    placed = set().union(*(sub.members for sub in pair.maximal_isotropics))
    _math_check(len(placed) == group.order, "the maximal isotropics must cover G")
    report.stats["n_extensions_total"] = n_tables
    report.stats["det"] = [_text(r, n) for r in reference.tolist()]
    return report


# -- twisting ---------------------------------------------------------------------


def twist(pair: HeisenbergPair, omega: LinearCharacter) -> HeisenbergPair:
    """Tensor the pair with a linear character of G: same Z, chi * omega|_Z.

    The twisted pair is valid without running ``validate_pair`` again:
    chi * omega|_Z is a character once omega is one (``omega.validate()``),
    and omega vanishes on [G,G] (one array test); both are cached per
    character, so each omega is tested once however many pairs it twists.
    So the pairing (chi * omega)([g, h]) = chi([g, h]) is unchanged, and
    with it invariance and nondegeneracy. The determinant picks up the
    factor omega^d (see twist_identity).
    """
    group = pair.group
    if omega.domain.parent is not group or len(omega.domain) != group.order:
        raise NotACharacter("twisting character must be defined on all of G")
    omega.validate()
    moved = omega._commutator_witness
    if moved is not None:
        raise NotACharacter(f"twisting character is not trivial on [G,G] at {moved}")
    twisted = (pair.chi.residues + omega.residues) % residue_modulus(group)
    chi = LinearCharacter(pair.Z, np.where(pair.Z.mask, twisted, -1))
    return HeisenbergPair(group, pair.Z, chi, pair.dim)


# Blocks of stacked omega residues are sized so that one block's gather
# over the coset factors stays under this many bytes.
OMEGA_BLOCK_BYTES = 4 << 20


def _omega_blocks(omegas: list[LinearCharacter], row_bytes: int):
    """Consecutive slices of ``omegas`` with at most OMEGA_BLOCK_BYTES of
    temporaries at ``row_bytes`` per omega, as (start, slice)."""
    rows = max(1, OMEGA_BLOCK_BYTES // max(row_bytes, 1))
    for start in range(0, len(omegas), rows):
        yield start, omegas[start : start + rows]


def twist_identity(pair: HeisenbergPair, omegas: list[LinearCharacter]) -> CheckReport:
    """det(rho (x) omega) = det(rho) * omega^d, pointwise, for every omega.

    The untwisted direct table is built once. Each omega is checked and
    twisted by ``twist``, and the twisted tables, the direct route from
    chi_H * omega|_H on the same H, come from one gather per block of
    omegas. The identity is compared on the whole block, and fails at
    its first (omega, g) in row-major order.
    """
    group = pair.group
    n = residue_modulus(group)
    sub = pair.maximal_isotropics[0]
    chi_h = pair.default_extension
    d = pair.dim
    det = direct_table(pair, sub, chi_h.residues)
    skeleton = group.coset_skeleton(sub)
    for _, chunk in _omega_blocks(omegas, skeleton.factors.nbytes):
        for omega in chunk:
            twist(pair, omega)
        block = np.stack([omega.residues for omega in chunk])
        twisted = _direct_residues(skeleton, chi_h.residues + block, n)
        bad = np.argwhere(twisted != (det + d * block) % n)
        if bad.size:
            raise IdentityFailed(f"twisted determinant identity fails at {bad[0, 1]}")
    return CheckReport(
        "twist_identity", True, stats={"n_characters": len(omegas), "dim": d}
    )


def find_trivializing_twist(
    pair: HeisenbergPair, omegas: list[LinearCharacter]
) -> LinearCharacter | None:
    """The first of G's characters ``omegas`` that vanishes on Ker(chi),
    so is a character of G/Ker(chi), with det(rho (x) omega) identically
    trivial against the reduced closed form pulled back to G, or None.

    Outside the rk_2(G/Z) = 2 regime the outcome is checked against the
    structural criterion on the reduced pair: a trivializing twist exists
    iff chi is trivial on G^d intersect [G,G]. (In the rk2 = 2 regime the
    eps sign makes that criterion unreliable in both directions, so the
    search result stands alone.)
    """
    group = pair.group
    n = residue_modulus(group)
    d = pair.dim
    reduced, proj = pair.reduction
    det0 = _formula_residues(reduced, n)[0][proj.map]
    kernel = pair.chi.residues == 0
    found = None
    for start, chunk in _omega_blocks(omegas, det0.nbytes):
        block = np.stack([omega.residues for omega in chunk])
        moved = block[:, kernel].any(axis=1) | ((det0 + d * block) % n).any(axis=1)
        trivial = np.flatnonzero(~moved)
        if trivial.size:
            found = omegas[start + int(trivial[0])]
            break

    quot = reduced.group
    z0 = quot.power_subgroup(d).mask & quot.commutator_subgroup().mask
    criterion = not reduced.chi.residues[z0].any()
    if reduced.two_rank != 2:
        _math_check(
            (found is not None) == criterion,
            "trivializing-twist criterion disagrees with the search",
        )
    return found


# -- reports and classifications ---------------------------------------------------


@dataclass(eq=False)
class DetReport:
    """Per-element determinant comparison on the kernel-reduced pair: each
    route's table, the sign table and the sign inside the closed form, as
    residues mod the reduced group's N."""

    pair: HeisenbergPair
    sub: Subgroup
    modulus: int
    direct: np.ndarray
    gallagher: np.ndarray
    formula: np.ndarray
    epsilon: np.ndarray
    formula_epsilon: np.ndarray
    rk2: int
    case: str

    def disagreeing(self) -> np.ndarray:
        """The elements where two routes or the two signs differ."""
        return np.flatnonzero(
            (self.direct != self.gallagher)
            | (self.direct != self.formula)
            | (self.epsilon != self.formula_epsilon)
        )

    @property
    def all_agree(self) -> bool:
        return not self.disagreeing().size

    def as_dict(self) -> dict:
        columns = ("direct", "gallagher", "formula", "epsilon")
        values = zip(*(getattr(self, column).tolist() for column in columns))
        return {
            "group": self.pair.group.label,
            "Z": list(self.pair.Z.members),
            "dim": self.pair.dim,
            "rk2": self.rk2,
            "case": self.case,
            "rows": [
                {"g": g, **{column: _text(r, self.modulus) for column, r in zip(columns, row)}}
                for g, row in enumerate(values)
            ],
            "all_agree": self.all_agree,
        }


def _case_label(rk2: int) -> str:
    if rk2 == 0:
        return "odd"
    return "rk2>=4" if rk2 >= 4 else "rk2=2"


def build_det_report(pair: HeisenbergPair) -> DetReport:
    """Reduce the pair, pick the first maximal isotropic and the default
    character extension, and tabulate all three determinants."""
    reduced, _ = pair.reduction
    n = residue_modulus(reduced.group)
    sub = reduced.maximal_isotropics[0]
    chi_h = reduced.default_extension
    eps = epsilon_table(reduced, sub)
    rk2 = reduced.two_rank
    direct = direct_table(reduced, sub, chi_h.residues)
    gallagher = gallagher_table(reduced, sub, chi_h.residues)
    formula, formula_eps = _formula_residues(reduced, n)
    return DetReport(
        reduced, sub, n, direct, gallagher, formula, eps, formula_eps, rk2, _case_label(rk2)
    )


def oracle_equivalence_report(pair: HeisenbergPair) -> CheckReport:
    """Compare all three determinant routes on every maximal isotropic,
    every character extension, and every group element.

    The direct and Gallagher determinants are computed on the original
    pair; the closed form on the kernel reduction, pulled back through
    the projection. Also certifies that the common determinant is a
    character, on G x S by ``whole_group_witness``, and that the scalar
    subgroup acts by scalar matrices.
    """
    group = pair.group
    n = residue_modulus(group)
    chi = pair.chi.residues
    reduced, proj = pair.reduction
    formula = _formula_residues(reduced, n)[0][proj.map]
    report = CheckReport(
        "determinant_oracle_equivalence",
        True,
        stats={
            "group": group.label,
            "dim": pair.dim,
            "n_isotropics": len(pair.maximal_isotropics),
            "n_extensions": 0,
        },
    )
    z = np.asarray(pair.Z.members)
    common: np.ndarray | None = None
    for sub in pair.maximal_isotropics:
        skeleton = group.coset_skeleton(sub)
        # z acts by the scalar chi(z): it fixes every coset, and every
        # factor of its matrix has the value chi(z)
        fixes_cosets = (skeleton.perm[z] == np.arange(skeleton.perm.shape[1])).all(axis=1)
        family = extend_character_all(group, pair.chi, sub)
        report.stats["n_extensions"] += len(family)
        direct = direct_table(pair, sub, family)
        gallagher = gallagher_table(pair, sub, family)
        if common is None:
            common = direct[0]
        off = (direct != gallagher) | (direct != formula)
        scalar = fixes_cosets & (family[:, skeleton.factors[z]] == chi[z][:, None]).all(axis=2)
        for i in np.flatnonzero(off.any(axis=1) | ~scalar.all(axis=1)).tolist():
            for g in np.flatnonzero(off[i]).tolist():
                report.fail(
                    g=g,
                    lhs=_text(direct[i, g], n),
                    rhs=_text(formula[g], n),
                    gallagher=_text(gallagher[i, g], n),
                    H=list(sub.members),
                )
            for g in z[~scalar[i]].tolist():
                report.fail(g=g, lhs="non-scalar", rhs=_text(chi[g], n), identity="scalar")

    _math_check(common is not None, "a pair has at least one maximal isotropic")
    if pair.dim == 1:
        # a 1x1 induced table is chi itself, whose multiplicativity was
        # verified exhaustively at validation time
        off = np.flatnonzero(common != chi)
        if off.size:
            g = int(off[0])
            report.fail(g=g, lhs=_text(common[g], n), rhs=_text(chi[g], n), identity="character")
        return report
    e = group.identity_id
    witness = (e, e) if common[e] else whole_group_witness(group, common)
    if witness is not None:
        x, y = witness
        report.fail(
            g=[x, y],
            lhs=_text(common[group.mul(x, y)], n),
            rhs=_text(common[x] + common[y], n),
            identity="character",
        )
    return report


def epsilon_case_report(det: DetReport) -> CheckReport:
    """Verify the sign character of a determinant report against its
    two-rank prediction.

    rk_2(G/Z) = 0 or >= 4 forces eps identically trivial; rk_2 = 2
    forces the + - - - pattern on the Klein quotient G/G^2Z. The report
    itself must agree: every route's determinant and both signs, so a
    pair whose report is not kept still has its routes compared.
    """
    reduced = det.pair
    group = reduced.group
    report = CheckReport(
        "epsilon_case_split",
        True,
        stats={"group": group.label, "dim": reduced.dim, "rk2": det.rk2, "case": det.case},
    )
    n = det.modulus
    g2z = reduced.squares_times_z
    expected = np.zeros(group.order, dtype=np.int64)
    if det.rk2 == 2:
        if group.order != 4 * len(g2z):
            report.fail(g=-1, lhs=len(g2z), rhs=group.order // 4)
        expected[~g2z.mask] = n // 2
    for g in np.flatnonzero(det.epsilon != expected).tolist():
        report.fail(g=g, lhs=_text(det.epsilon[g], n), rhs=_text(expected[g], n))
    if not det.all_agree:
        g = int(det.disagreeing()[0])
        report.fail(
            g=g,
            lhs=_text(det.direct[g], n),
            rhs=_text(det.formula[g], n),
            gallagher=_text(det.gallagher[g], n),
            epsilon=_text(det.epsilon[g], n),
            formula_epsilon=_text(det.formula_epsilon[g], n),
            identity="det_report",
        )
    return report


# p3_classification covers the odd primes p with p^3 at most this order.
P3_ORDER_BOUND = 1331


def p3_classification(p: int) -> dict:
    """Both nonabelian groups of order p^3 for an odd prime p.

    The exponent-p group has G^p = {e} and every dim-p determinant
    trivial; the exponent-p^2 group has G^p = Z and every dim-p
    determinant nontrivial.
    """
    # the bound first: trial division of a large p is the expensive test
    if p < 3 or p**3 > P3_ORDER_BOUND or not _is_prime(p):
        raise InvalidPrime(f"need an odd prime with p^3 <= {P3_ORDER_BOUND}, got {p}")
    rows = []
    for kind, group in (
        ("exponent_p", heisenberg_mod(p)),
        ("exponent_p2", extraspecial_p3_exp_p2(p)),
    ):
        pairs = [
            q for q in enumerate_pairs(group, max_order=P3_ORDER_BOUND) if q.dim == p
        ]
        _math_check(len(pairs) == p - 1, f"expected {p - 1} pairs of dim {p}")
        center = group.center()
        power = group.power_subgroup(p)
        dets_trivial = []
        for q in pairs:
            # the projection is onto, so the reduced group's table decides
            reduced, _ = q.reduction
            det, _ = _formula_residues(reduced, residue_modulus(reduced.group))
            dets_trivial.append(not det.any())
        if kind == "exponent_p":
            _math_check(len(power) == 1, "exponent-p group must have trivial p-th powers")
            _math_check(all(dets_trivial), "exponent-p determinants must be trivial")
        else:
            _math_check(
                power.members == center.members, "exponent-p^2 group must have G^p = Z"
            )
            _math_check(
                not any(dets_trivial), "exponent-p^2 determinants must be nontrivial"
            )
        rows.append(
            {
                "group": group.label,
                "kind": kind,
                "order": group.order,
                "n_pairs_dim_p": len(pairs),
                "power_subgroup": list(power.members),
                "center": list(center.members),
                "det_trivial": all(dets_trivial),
            }
        )
    return {"p": p, "rows": rows}
