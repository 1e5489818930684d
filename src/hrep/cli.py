"""Command-line frontend.

Commands operate on one group, supplied either as a JSON file
({"label": ..., "cayley_table": [[...]]} or {"label": ..., "construct":
{"family": ..., "params": {...}}}) or as a builtin zoo name such as
"d8", "c12", "q8", "heis3", "es_p3_exp_p2:5", "cp:d8,q8",
"prod:d8,c3" or "ab:2,4".

Exit codes: 0 all checks pass, 1 a mathematical identity failed (inside
a verify check or anywhere else), 2 input/validation error, 3 an
enumeration bound was exceeded.
Output is deterministic: JSON with sorted keys or TSV with sorted rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import abelian, transfer
from .errors import EnumerationBoundExceeded, HrepError, IdentityFailed, InvalidSpec, unwrap
from .group_core import FiniteGroup, construct_spec, from_cayley_table, from_name
from .heisenberg import PAIR_ENUM_BOUND, enumerate_pairs
from .induced_det import (
    P3_ORDER_BOUND,
    build_det_report,
    epsilon_case_report,
    find_trivializing_twist,
    isotropic_independence,
    oracle_equivalence_report,
    p3_classification,
    twist_identity,
)
from .char_theory import linear_characters

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_BOUND_EXCEEDED = 3


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    builtin: str | None = None
    output_format: str = "json"
    seed: int = 0
    max_order: int = PAIR_ENUM_BOUND
    p: int | None = None


def load_group(config: RunConfig) -> FiniteGroup:
    if config.builtin:
        return from_name(config.builtin)
    if not config.input_path:
        raise InvalidSpec("either --input or --builtin is required")
    try:
        with open(config.input_path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidSpec(f"cannot read group file: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidSpec("group file must hold a JSON object")
    label = data.get("label", "G")
    if not isinstance(label, str):
        raise InvalidSpec(f"group file 'label' must be a string, got {label!r}")
    if "cayley_table" in data:
        return from_cayley_table(data["cayley_table"], label=label)
    if "construct" in data:
        group = construct_spec(data["construct"])
        return FiniteGroup(group, label=label)
    raise InvalidSpec("group file needs a 'cayley_table' or 'construct' key")


# -- commands -------------------------------------------------------------------


def cmd_group_info(config: RunConfig) -> tuple[dict, int]:
    group = load_group(config)
    series = group.lower_central_series()
    ab_quot, _ = group.abelianization
    squares = group.power_subgroup(2)
    info = {
        "label": group.label,
        "order": group.order,
        "center": list(group.center().members),
        "commutator_subgroup": list(group.commutator_subgroup().members),
        "lower_central_series_sizes": [len(s) for s in series],
        "nilpotency_class": group.nilpotency_class(),
        "squares_subgroup": list(squares.members),
        "abelianization_factors": list(abelian.decompose(ab_quot).factors),
    }
    return info, EXIT_OK


def cmd_heisenberg(config: RunConfig) -> tuple[dict, int]:
    group = load_group(config)
    pairs = enumerate_pairs(group, max_order=config.max_order)
    rows = []
    for index, pair in enumerate(pairs):
        rows.append(
            {
                "index": index,
                "dim": pair.dim,
                "Z": list(pair.Z.members),
                "rk2": pair.two_rank,
                "n_isotropics": len(pair.maximal_isotropics),
                "chi": pair.chi.as_dict(),
            }
        )
    return {"group": group.label, "order": group.order, "pairs": rows}, EXIT_OK


def cmd_verify(config: RunConfig) -> tuple[dict, int]:
    """Run every applicable identity on one group; the CI gate."""
    group = load_group(config)
    checks: list[dict] = []

    def run(name, func):
        try:
            result = func()
        except EnumerationBoundExceeded:
            raise
        except HrepError as exc:
            error = f"{type(exc).__name__}: {exc}"
            checks.append(
                {"check": name, "pass": False, "counterexamples": [], "stats": {"error": error}}
            )
            return
        if result is not None:
            checks.append(result.as_dict())

    # the pair bound is checked before any transfer work starts
    pairs = enumerate_pairs(group, max_order=config.max_order)
    instances = transfer.transfer_instances(group)
    outcomes = transfer.transfer_checks(group, instances, seed=config.seed)
    names = (
        "odd_index_transfer",
        "correcting_cocycle",
        "transfer_identities",
        "transversal_independence",
    )
    for i in range(len(instances)):
        for name, found in zip(names, outcomes):
            if found[i] is not None:
                run(f"{name}[{i}]", lambda o=found[i]: unwrap(o))

    omegas = linear_characters(group)
    det_reports = []

    def epsilon_split(pair):
        det = build_det_report(pair)
        if pair.dim > 1:
            det_reports.append(det.as_dict())
        return epsilon_case_report(det)

    for j, pair in enumerate(pairs):
        run(f"oracle_equivalence[{j}]", lambda q=pair: oracle_equivalence_report(q))
        run(f"epsilon_case_split[{j}]", lambda q=pair: epsilon_split(q))
        run(f"isotropic_independence[{j}]", lambda q=pair: isotropic_independence(q.reduction[0]))
        run(f"twist_identity[{j}]", lambda q=pair: twist_identity(q, omegas))
        run(f"trivializing_twist[{j}]", lambda q=pair: _twist_search(q, omegas))

    all_pass = all(c["pass"] for c in checks) and all(
        r["all_agree"] for r in det_reports
    )
    report = {
        "group": group.label,
        "order": group.order,
        "n_pairs": len(pairs),
        "all_pass": all_pass,
        "checks": checks,
        "det_reports": det_reports,
    }
    return report, EXIT_OK if all_pass else EXIT_MATH_FAILURE


def _twist_search(pair, omegas) -> transfer.CheckReport:
    omega = find_trivializing_twist(pair, omegas)
    return transfer.CheckReport(
        "trivializing_twist",
        True,
        stats={"possible": omega is not None, "dim": pair.dim},
    )


def cmd_p3(config: RunConfig) -> tuple[dict, int]:
    report = p3_classification(config.p)
    return report, EXIT_OK


# -- rendering ------------------------------------------------------------------


def _render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for
    byte. With an indent, ``json`` runs its pure-Python encoder; here a
    container whose items are all scalars is one call of the C encoder,
    whose item separator carries the indent of its depth
    (``_flat_encoder``), and only the other containers are joined in
    Python."""
    return _json_text(report, 0) + "\n"


_CONTAINERS = (dict, list, tuple)
_SCALARS = {str, int, bool, float, type(None)}
_quote = json.encoder.encode_basestring_ascii
_flat_encoders: dict[int, object] = {}


def _flat_encoder(depth: int):
    """The C encoder of a container of scalars whose items sit at
    ``depth``: one item per line, but the first on the opening line and
    the last on the closing one."""
    encode = _flat_encoders.get(depth)
    if encode is None:
        separators = (",\n" + "  " * depth, ": ")
        encode = _flat_encoders[depth] = json.JSONEncoder(sort_keys=True, separators=separators).encode
    return encode


def _json_text(value, depth: int) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if not isinstance(value, _CONTAINERS):
        return _flat_encoder(0)(value)
    is_dict = isinstance(value, dict)
    brackets = "{}" if is_dict else "[]"
    if not value:
        return brackets
    items = value.values() if is_dict else value
    inner, outer = "  " * (depth + 1), "  " * depth
    if set(map(type, items)) <= _SCALARS:
        text = _flat_encoder(depth + 1)(value)[1:-1]
    elif is_dict:
        text = (",\n" + inner).join(
            f"{_quote(key) if isinstance(key, str) else _key_text(key)}: "
            f"{_json_text(value[key], depth + 1)}"
            for key in sorted(value)
        )
    else:
        text = (",\n" + inner).join(_json_text(item, depth + 1) for item in value)
    return f"{brackets[0]}\n{inner}{text}\n{outer}{brackets[1]}"


def _key_text(key) -> str:
    """json's text for an int, float, bool or None key; TypeError for any
    other key."""
    return _flat_encoder(0)({key: 0})[1:-4]


def _flatten(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_flatten(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_flatten(v)}" for k, v in sorted(value.items()))
    return str(value)


def _render_tsv(report: dict) -> str:
    lines = []
    rows = report.get("rows") or report.get("pairs") or report.get("checks")
    scalar_items = sorted(
        (k, v)
        for k, v in report.items()
        if k not in ("rows", "pairs", "checks", "det_reports")
    )
    for key, value in scalar_items:
        lines.append(f"{key}\t{_flatten(value)}")
    if rows is not None:
        for row in rows:
            lines.append("\t".join(f"{k}={_flatten(v)}" for k, v in sorted(row.items())))
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "group-info": cmd_group_info,
    "heisenberg": cmd_heisenberg,
    "verify": cmd_verify,
    "p3": cmd_p3,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrep",
        description="Heisenberg representations, transfer maps, and determinant characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes --seed, so one command line fits them all
    seed_help = "seeds the random transversal shifts of verify's transversal-independence check"
    for name in ("group-info", "heisenberg", "verify"):
        cmd = sub.add_parser(name)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="path to a JSON group file")
        source.add_argument("--builtin", help="builtin zoo name, e.g. d8 or cp:d8,q8")
        cmd.add_argument("--format", choices=("json", "tsv"), default="json")
        cmd.add_argument("--seed", type=int, default=0, help=seed_help)
        cmd.add_argument("--max-order", type=int, default=PAIR_ENUM_BOUND)
    p3_cmd = sub.add_parser("p3")
    p3_cmd.add_argument("p", type=int, help=f"an odd prime with p^3 <= {P3_ORDER_BOUND}")
    p3_cmd.add_argument("--format", choices=("json", "tsv"), default="json")
    p3_cmd.add_argument("--seed", type=int, default=0, help=seed_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        builtin=getattr(args, "builtin", None),
        output_format=args.format,
        seed=args.seed,
        max_order=getattr(args, "max_order", PAIR_ENUM_BOUND),
        p=getattr(args, "p", None),
    )
    try:
        report, code = _COMMANDS[config.command](config)
    except EnumerationBoundExceeded as exc:
        print(f"hrep: {exc}", file=sys.stderr)
        return EXIT_BOUND_EXCEEDED
    except IdentityFailed as exc:
        print(f"hrep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except HrepError as exc:
        print(f"hrep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    renderer = _render_tsv if config.output_format == "tsv" else _render_json
    sys.stdout.write(renderer(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
