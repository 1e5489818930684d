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

The direct and Gallagher routes exist only as whole-group tables:
``induced_matrices`` and ``direct_table`` for the direct route,
``gallagher_table`` for Gallagher's. They read the coset skeleton and the
transfer products that the group caches once per subgroup, and each call
checks the character extension once. The closed form ``det_formula`` is
evaluated per element.

The sign defect and the determinant's multiplicativity are checked on
all |G|^2 pairs as integer tables.

Signs live in QmodZ as 1/2, so the whole pipeline stays in one exact
value domain. The closed form requires a kernel-reduced pair and
refuses anything else, making the reduction step explicit in the API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import abelian
from .char_theory import (
    HALF,
    ZERO,
    LinearCharacter,
    QmodZ,
    extend_character_all,
    linear_characters,
    residues,
)
from .errors import (
    DimMismatch,
    IdentityFailed,
    InvalidPrime,
    KernelNotReduced,
    NotACharacter,
    NotAnExtension,
    PreconditionFailed,
    math_check as _math_check,
)
from .group_core import (
    FiniteGroup,
    Subgroup,
    _is_prime,
    _perm_is_odd,
    extraspecial_p3_exp_p2,
    heisenberg_mod,
)
from .heisenberg import (
    HeisenbergPair,
    enumerate_pairs,
    quotient_by_kernel,
    validate_pair,
)
from .transfer import CheckReport, correcting_function


@dataclass(frozen=True)
class MonomialMatrix:
    """A d x d matrix with one root-of-unity entry per row and column.

    ``perm[j]`` is the row of the nonzero entry in column j and
    ``exps[j]`` its exponent, so the matrix is P * diag(exps) for the
    permutation matrix P.
    """

    dim: int
    perm: tuple[int, ...]
    exps: tuple[QmodZ, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.dim)) or len(self.exps) != self.dim:
            raise DimMismatch("perm must be a permutation of 0..d-1 with one exponent per column")

    @classmethod
    def identity(cls, dim: int) -> "MonomialMatrix":
        return cls(dim, tuple(range(dim)), tuple(ZERO for _ in range(dim)))

    def is_scalar(self) -> bool:
        return self.perm == tuple(range(self.dim)) and len(set(self.exps)) == 1

    def __str__(self) -> str:
        perm = ",".join(str(i) for i in self.perm)
        exps = ",".join(str(q) for q in self.exps)
        return f"perm=({perm}) exps=({exps})"


def monomial_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    if a.dim != b.dim:
        raise DimMismatch(f"dimension mismatch {a.dim} != {b.dim}")
    perm = tuple(a.perm[b.perm[j]] for j in range(b.dim))
    exps = tuple(a.exps[b.perm[j]] + b.exps[j] for j in range(b.dim))
    return MonomialMatrix(a.dim, perm, exps)


def monomial_det(matrix: MonomialMatrix) -> QmodZ:
    """Permutation sign (as 0 or 1/2) plus the sum of the exponents."""
    total = HALF if _perm_is_odd(matrix.perm) else ZERO
    for q in matrix.exps:
        total = total + q
    return total


# -- induced representations ----------------------------------------------------


def _require_extension(pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter) -> None:
    if chi_h.domain.members != sub.members:
        raise NotAnExtension("character is not defined exactly on H")
    for z in pair.Z.members:
        if chi_h(z) != pair.chi(z):
            raise NotAnExtension(f"character disagrees with chi at {z}")


def _require_isotropic(pair: HeisenbergPair, sub: Subgroup) -> None:
    if not sub.contains_subgroup(pair.Z) or sub.index() != pair.dim:
        raise PreconditionFailed("H must contain Z with index dim in G")
    # X(a, b) = chi([a, b]) vanishes exactly on commutators in Ker(chi)
    in_kernel = np.zeros(pair.group.order, dtype=bool)
    in_kernel[list(pair.chi.kernel().members)] = True
    bad = np.argwhere(~in_kernel[pair.group.commutator_table(sub.members, sub.members)])
    if bad.size:
        i, j = bad[0].tolist()
        raise PreconditionFailed(f"H is not isotropic at ({sub.members[i]},{sub.members[j]})")


def induced_matrices(
    pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter
) -> list[MonomialMatrix]:
    """The monomial matrix of every g in the representation induced from chi_H.

    Columns are indexed by the canonical left transversal; the column of
    t carries chi_H(s^-1 g t) in the row of s, where g t lands in s H.
    """
    _require_extension(pair, sub, chi_h)
    skeleton = pair.group.coset_skeleton(sub)
    dim = len(skeleton.transversal)
    return [
        MonomialMatrix(dim, skeleton.perm[g], tuple(chi_h(f) for f in skeleton.factors[g]))
        for g in pair.group.elements()
    ]


def direct_table(pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter) -> list[QmodZ]:
    """The direct route: the determinant of every induced monomial matrix."""
    return [monomial_det(m) for m in induced_matrices(pair, sub, chi_h)]


def check_homomorphism(
    pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter
) -> CheckReport:
    """Certify Ind(g1) Ind(g2) = Ind(g1 g2) on every pair of elements."""
    group = pair.group
    matrices = induced_matrices(pair, sub, chi_h)
    report = CheckReport(
        "induced_representation_homomorphism",
        True,
        stats={"group": group.label, "pairs": group.order**2},
    )
    for x in group.elements():
        for y in group.elements():
            product = monomial_mul(matrices[x], matrices[y])
            image = matrices[group.mul(x, y)]
            if product != image:
                report.fail(g=[x, y], lhs=str(product), rhs=str(image))
    return report


def delta_character(group: FiniteGroup, sub: Subgroup, g: int) -> QmodZ:
    """Sign of the permutation induced by g on the left cosets of H."""
    return HALF if group.coset_skeleton(sub).odd[g] else ZERO


def gallagher_table(pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter) -> list[QmodZ]:
    """Gallagher's route: Delta_H(g) + chi_H(T_{G/H}(g)) for every g.

    The raw transfer product is a well-defined argument because chi_H
    kills [H,H].
    """
    _require_extension(pair, sub, chi_h)
    group = pair.group
    transfers = group.transfer_products(sub)
    return [delta_character(group, sub, g) + chi_h(transfers[g]) for g in group.elements()]


# -- the closed form -------------------------------------------------------------


def _require_reduced(pair: HeisenbergPair) -> None:
    if not pair.is_reduced:
        raise KernelNotReduced(
            "closed-form determinants need a faithful scalar character; "
            "reduce with quotient_by_kernel first"
        )


def det_formula(pair: HeisenbergPair, g: int) -> tuple[QmodZ, QmodZ]:
    """(det(rho)(g), eps(g)) from the closed form eps(g) * chi(g^d).

    eps is trivial when rk_2(G/Z) is 0 or at least 4; when it is 2, eps
    is - exactly off the subgroup G^2 Z.
    """
    _require_reduced(pair)
    group = pair.group
    gd = group.pow(g, pair.dim)
    _math_check(gd in pair.Z, f"g^d must be central, failed at g={g}")
    if pair.two_rank == 2 and g not in pair.squares_times_z:
        eps = HALF
    else:
        eps = ZERO
    return eps + pair.chi(gd), eps


def epsilon_table(pair: HeisenbergPair, sub: Subgroup) -> dict[int, QmodZ]:
    """eps(g) = Delta_H(g) + chi(phi_{G/H}(g)) for a maximal isotropic H.

    Verifies that the values are signs, constant on G^2 Z cosets, and
    satisfy the sign-defect identity
    eps(g1) + eps(g2) - eps(g1 g2) = (d/2) * X(g1, g2) for even d
    (for odd d the table is identically trivial).
    """
    _require_reduced(pair)
    _require_isotropic(pair, sub)
    group = pair.group
    cf = correcting_function(group, sub)
    table = {}
    for g in group.elements():
        value = delta_character(group, sub, g) + pair.chi(cf.values[g])
        _math_check(value in (ZERO, HALF), f"eps({g}) is not a sign")
        table[g] = value

    by_coset: dict[int, QmodZ] = {}
    _, pos = group.coset_positions(pair.squares_times_z)
    for g, value in table.items():
        seen = by_coset.setdefault(pos[g], value)
        _math_check(seen == value, f"eps is not constant on the G^2 Z coset of {g}")

    d = pair.dim
    if d % 2 == 1:
        _math_check(all(v.is_zero() for v in table.values()), "eps must be trivial for odd dim")
        return table
    # both sides as residues mod N; X(g1, g2) = chi([g1, g2]) with [G,G] inside Z
    n = group.order
    common, values = residues([*table.values(), *pair.chi.exps])
    eps = values[:n]
    chi = np.zeros(n, dtype=np.int64)
    chi[list(pair.Z.members)] = values[n:]
    lhs = (eps[:, None] + eps[None, :] - eps[group._np_table]) % common
    rhs = (d // 2) * chi[group.commutator_table(group.elements(), group.elements())] % common
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        g1, g2 = bad[0].tolist()
        raise IdentityFailed(
            f"sign defect identity fails at ({g1},{g2}): "
            f"{QmodZ(int(lhs[g1, g2]), common)} != {QmodZ(int(rhs[g1, g2]), common)}"
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
    reference: list[QmodZ] | None = None
    n_tables = 0
    report = CheckReport(
        "isotropic_independence",
        True,
        stats={"group": group.label, "dim": pair.dim, "n_isotropics": len(pair.maximal_isotropics)},
    )
    for sub in pair.maximal_isotropics:
        for chi_h in extend_character_all(group, pair.chi, sub):
            n_tables += 1
            table = direct_table(pair, sub, chi_h)
            if reference is None:
                reference = table
            elif table != reference:
                g = next(g for g in group.elements() if table[g] != reference[g])
                report.fail(g=g, lhs=str(table[g]), rhs=str(reference[g]))

        # placement reformulation through the Miller product of G/H
        quot, _ = group.quotient(sub)
        alpha_lift = quot.coset_reps[abelian.subgroup_product(quot, quot.elements())]
        for g in sub.members:
            expected = pair.chi(group.pow(g, pair.dim)) + pair.x_value(g, alpha_lift)
            if reference[g] != expected:
                report.fail(
                    g=g,
                    H=list(sub.members),
                    lhs=str(reference[g]),
                    rhs=str(expected),
                    identity="miller",
                )
    placed = set().union(*(sub.members for sub in pair.maximal_isotropics))
    _math_check(len(placed) == group.order, "the maximal isotropics must cover G")
    report.stats["n_extensions_total"] = n_tables
    report.stats["det"] = [str(q) for q in reference]
    return report


# -- twisting ---------------------------------------------------------------------


def twist(pair: HeisenbergPair, omega: LinearCharacter) -> HeisenbergPair:
    """Tensor the pair with a linear character of G: same Z, chi * omega|_Z.

    The commutator pairing is unchanged, so the result is again a valid
    pair; its determinant picks up the factor omega^d (see twist_identity).
    """
    group = pair.group
    if omega.domain.members != group.full_subgroup().members:
        raise NotACharacter("twisting character must be defined on all of G")
    omega.validate()
    return validate_pair(group, pair.Z, pair.chi * omega.restrict(pair.Z))


def twist_identity(pair: HeisenbergPair, omegas: list[LinearCharacter]) -> CheckReport:
    """det(rho (x) omega) = det(rho) * omega^d, pointwise, for every omega.

    The untwisted direct table is built once; each twisted pair's table
    is computed by the direct route from chi_H * omega|_H on the same H.
    """
    group = pair.group
    sub = pair.maximal_isotropics[0]
    chi_h = pair.default_extension
    d = pair.dim
    det = direct_table(pair, sub, chi_h)
    for omega in omegas:
        twisted = twist(pair, omega)
        twisted_det = direct_table(twisted, sub, chi_h * omega.restrict(sub))
        for g in group.elements():
            _math_check(
                twisted_det[g] == det[g] + omega(g).scale(d),
                f"twisted determinant identity fails at {g}",
            )
    return CheckReport(
        "twist_identity", True, stats={"n_characters": len(omegas), "dim": d}
    )


def find_trivializing_twist(pair: HeisenbergPair) -> LinearCharacter | None:
    """Search for omega with det(rho (x) omega) identically trivial.

    Returns the first such character of G (trivial character first) or
    None. Outside the rk_2(G/Z) = 2 regime the outcome is checked
    against the structural criterion: a trivializing twist exists iff
    chi is trivial on G^d intersect [G,G]. (In the rk2 = 2 regime the
    eps sign makes that criterion unreliable in both directions, so the
    search result stands alone.)
    """
    _require_reduced(pair)
    group = pair.group
    d = pair.dim
    det0 = [det_formula(pair, g)[0] for g in group.elements()]

    found = None
    for omega in linear_characters(group):
        if all((det0[g] + omega(g).scale(d)).is_zero() for g in group.elements()):
            found = omega
            break

    power_members = set(group.power_subgroup(d).members)
    derived_members = set(group.commutator_subgroup().members)
    z0 = sorted(power_members & derived_members)
    criterion = all(pair.chi(x).is_zero() for x in z0)
    if pair.two_rank != 2:
        _math_check(
            (found is not None) == criterion,
            "trivializing-twist criterion disagrees with the search",
        )
    return found


# -- reports and classifications ---------------------------------------------------


@dataclass
class DetRow:
    """One element's determinant on each route, its sign from the sign
    table and the sign inside the closed form."""

    g: int
    direct: QmodZ
    gallagher: QmodZ
    formula: QmodZ
    epsilon: QmodZ
    formula_epsilon: QmodZ

    def agrees(self) -> bool:
        return self.direct == self.gallagher == self.formula and self.epsilon == self.formula_epsilon


@dataclass
class DetReport:
    """Per-element determinant comparison on the kernel-reduced pair."""

    pair: HeisenbergPair
    sub: Subgroup
    rows: list[DetRow]
    rk2: int
    case: str
    all_agree: bool

    def as_dict(self) -> dict:
        return {
            "group": self.pair.group.label,
            "Z": list(self.pair.Z.members),
            "dim": self.pair.dim,
            "rk2": self.rk2,
            "case": self.case,
            "rows": [
                {
                    "g": row.g,
                    "direct": str(row.direct),
                    "gallagher": str(row.gallagher),
                    "formula": str(row.formula),
                    "epsilon": str(row.epsilon),
                }
                for row in self.rows
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
    group = reduced.group
    sub = reduced.maximal_isotropics[0]
    chi_h = reduced.default_extension
    eps = epsilon_table(reduced, sub)
    rk2 = reduced.two_rank
    direct = direct_table(reduced, sub, chi_h)
    gallagher = gallagher_table(reduced, sub, chi_h)
    rows = []
    for g in group.elements():
        formula, formula_eps = det_formula(reduced, g)
        rows.append(DetRow(g, direct[g], gallagher[g], formula, eps[g], formula_eps))
    all_agree = all(row.agrees() for row in rows)
    return DetReport(reduced, sub, rows, rk2, _case_label(rk2), all_agree)


def oracle_equivalence_report(pair: HeisenbergPair) -> CheckReport:
    """Compare all three determinant routes on every maximal isotropic,
    every character extension, and every group element.

    The direct and Gallagher determinants are computed on the original
    pair; the closed form on the kernel reduction, pulled back through
    the projection. Also certifies, on every pair of elements, that the
    common determinant is a character, and that the scalar subgroup acts
    by scalar matrices.
    """
    group = pair.group
    reduced, proj = pair.reduction
    formula = {g: det_formula(reduced, proj(g))[0] for g in group.elements()}
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
    common: list[QmodZ] | None = None
    for sub in pair.maximal_isotropics:
        for chi_h in extend_character_all(group, pair.chi, sub):
            report.stats["n_extensions"] += 1
            matrices = induced_matrices(pair, sub, chi_h)
            direct = [monomial_det(m) for m in matrices]
            gallagher = gallagher_table(pair, sub, chi_h)
            for g in group.elements():
                dd, dg, df = direct[g], gallagher[g], formula[g]
                if not (dd == dg == df):
                    report.fail(
                        g=g, lhs=str(dd), rhs=str(df), gallagher=str(dg), H=list(sub.members)
                    )
            if common is None:
                common = direct
            for z in pair.Z.members:
                matrix = matrices[z]
                if not (matrix.is_scalar() and matrix.exps[0] == pair.chi(z)):
                    report.fail(g=z, lhs="non-scalar", rhs=str(pair.chi(z)), identity="scalar")

    _math_check(common is not None, "a pair has at least one maximal isotropic")
    if pair.dim == 1:
        # a 1x1 induced table is chi itself, whose multiplicativity was
        # verified exhaustively at validation time
        g = next((g for g in group.elements() if common[g] != pair.chi(g)), None)
        if g is not None:
            report.fail(g=g, lhs=str(common[g]), rhs=str(pair.chi(g)), identity="character")
        return report
    try:
        LinearCharacter(group.full_subgroup(), tuple(common)).validate()
    except NotACharacter as exc:
        x, y = exc.witness
        xy = group.mul(x, y)
        report.fail(
            g=[x, y], lhs=str(common[xy]), rhs=str(common[x] + common[y]), identity="character"
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
    g2z = reduced.squares_times_z
    if det.rk2 == 2:
        if group.order != 4 * len(g2z):
            report.fail(g=-1, lhs=len(g2z), rhs=group.order // 4)
        expected = {g: (ZERO if g in g2z else HALF) for g in group.elements()}
    else:
        expected = {g: ZERO for g in group.elements()}
    table = [row.epsilon for row in det.rows]
    for g in group.elements():
        if table[g] != expected[g]:
            report.fail(g=g, lhs=str(table[g]), rhs=str(expected[g]))
    if not det.all_agree:
        row = next(row for row in det.rows if not row.agrees())
        report.fail(
            g=row.g,
            lhs=str(row.direct),
            rhs=str(row.formula),
            gallagher=str(row.gallagher),
            epsilon=str(row.epsilon),
            formula_epsilon=str(row.formula_epsilon),
            identity="det_report",
        )
    return report


# p3_classification covers the odd primes p with p^3 at most this order.
P3_ORDER_BOUND = 512


def p3_classification(p: int) -> dict:
    """Both nonabelian groups of order p^3 for an odd prime p.

    The exponent-p group has G^p = {e} and every dim-p determinant
    trivial; the exponent-p^2 group has G^p = Z and every dim-p
    determinant nontrivial.
    """
    if p == 2 or not _is_prime(p) or p**3 > P3_ORDER_BOUND:
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
            reduced, proj = quotient_by_kernel(q)
            table = [det_formula(reduced, proj(g))[0] for g in group.elements()]
            dets_trivial.append(all(v.is_zero() for v in table))
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
