"""Command-line interface: parsing, reports, exit codes, determinism."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_plain_json
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrep.cli import (
    EXIT_BOUND_EXCEEDED,
    EXIT_INPUT_ERROR,
    EXIT_MATH_FAILURE,
    EXIT_OK,
    RunConfig,
    _render_json,
    cmd_verify,
    main,
)
from hrep.errors import IdentityFailed, PreconditionFailed
from hrep.transfer import CheckReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- group-info -----------------------------------------------------------------


def test_group_info_d8(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--builtin", "d8")
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["order"] == 8
    assert info["nilpotency_class"] == 2
    assert info["center"] == [0, 4]
    assert info["abelianization_factors"] == [2, 2]


def test_group_info_cyclic(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--builtin", "c12")
    info = json.loads(out)
    assert info["nilpotency_class"] == 1
    assert info["abelianization_factors"] == [12]


def test_group_info_heis3(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--builtin", "heis3")
    info = json.loads(out)
    assert info["order"] == 27 and info["nilpotency_class"] == 2


def test_only_heisenberg_and_verify_take_max_order(capsys):
    """group-info enumerates no pairs, so it refuses the pair bound."""
    with pytest.raises(SystemExit) as exc:
        main(["group-info", "--builtin", "d8", "--max-order", "5"])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments: --max-order 5" in capsys.readouterr().err
    for verb in ("heisenberg", "verify"):
        code, out, _ = run_cli(capsys, verb, "--builtin", "d8", "--max-order", "8")
        assert code == EXIT_OK and json.loads(out)


# -- heisenberg -------------------------------------------------------------------


def test_heisenberg_command_d8(capsys):
    code, out, _ = run_cli(capsys, "heisenberg", "--builtin", "d8")
    assert code == EXIT_OK
    report = json.loads(out)
    dims = sorted(row["dim"] for row in report["pairs"])
    assert dims == [1, 1, 1, 1, 2]
    top = [row for row in report["pairs"] if row["dim"] == 2][0]
    assert top["n_isotropics"] == 3
    assert top["rk2"] == 2


def test_heisenberg_command_central_product(capsys):
    code, out, _ = run_cli(capsys, "heisenberg", "--builtin", "cp:d8,q8")
    report = json.loads(out)
    top = [row for row in report["pairs"] if row["dim"] == 4]
    assert len(top) == 1
    assert top[0]["rk2"] == 4


# -- verify ----------------------------------------------------------------------


def test_verify_d8_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--builtin", "d8")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["n_pairs"] == 5


def test_verify_heis3_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--builtin", "heis3")
    assert code == EXIT_OK
    assert json.loads(out)["all_pass"] is True


def test_verify_output_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--builtin", "d8", "--seed", "7")
    _, out2, _ = run_cli(capsys, "verify", "--builtin", "d8", "--seed", "7")
    assert out1 == out2


def test_verify_corrupted_table_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "broken", "cayley_table": [[0, 1], [1, 1]]}))
    code, out, err = run_cli(capsys, "verify", "--input", str(bad))
    assert code == EXIT_INPUT_ERROR
    assert "NotAGroup" in err
    assert out == ""


@pytest.mark.parametrize(
    "name", ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "heis4", "prod:d8,c3", "ab:2,2,2")
)
def test_verify_report_is_plain_json(name):
    """Every leaf of verify's report is a plain Python value, so a failed
    identity is rendered rather than crashing json.dumps."""
    report, code = cmd_verify(RunConfig("verify", builtin=name))
    assert code == EXIT_OK
    assert_plain_json(report)


def test_plain_json_helper_refuses_numpy_scalars():
    assert_plain_json({"g": [1, 2], "pass": True, "stats": {"x": None, "y": "1/2", "f": 0.5}})
    for leaf in (np.int64(3), np.bool_(True)):
        with pytest.raises(TypeError):
            json.dumps(leaf)
        with pytest.raises(AssertionError):
            assert_plain_json({"counterexamples": [{"g": leaf}]})
    with pytest.raises(AssertionError):
        assert_plain_json({np.int64(1): 0})


def test_verify_bound_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "--builtin", "c300")
    assert code == EXIT_BOUND_EXCEEDED


def test_verify_reports_math_failure_with_exit_one(capsys, monkeypatch):
    """A failed identity must flip all_pass and the exit code (the checks
    are theorems on valid input, so the failing branch is driven by a stub)."""
    import hrep.cli as cli_module

    def failing_report(pair):
        return CheckReport(
            "determinant_oracle_equivalence",
            False,
            counterexamples=[{"g": 0, "lhs": "0/1", "rhs": "1/2"}],
        )

    monkeypatch.setattr(cli_module, "oracle_equivalence_report", failing_report)
    code, out, _ = run_cli(capsys, "verify", "--builtin", "c2")
    assert code == EXIT_MATH_FAILURE
    report = json.loads(out)
    assert report["all_pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed and failed[0]["counterexamples"]


def test_verify_records_other_library_errors_on_the_check(capsys, monkeypatch):
    """A check that raises a library error fails alone: the report keeps
    every other check and the exit code is 1, not the input-error 2."""
    import hrep.cli as cli_module

    _, out, _ = run_cli(capsys, "verify", "--builtin", "c2")
    passing = json.loads(out)["checks"]

    def failing_report(pair):
        raise PreconditionFailed("stubbed precondition")

    monkeypatch.setattr(cli_module, "epsilon_case_report", failing_report)
    code, out, _ = run_cli(capsys, "verify", "--builtin", "c2")
    assert code == EXIT_MATH_FAILURE
    checks = json.loads(out)["checks"]
    failed = [c for c in checks if not c["pass"]]
    assert [c["check"] for c in failed] == ["epsilon_case_split[0]", "epsilon_case_split[1]"]
    assert failed[0]["stats"]["error"] == "PreconditionFailed: stubbed precondition"
    assert [c for c in checks if c["pass"]] == [
        c for c in passing if c["check"] != "epsilon_case_split"
    ]


def test_det_report_failure_is_recorded_on_the_epsilon_check(capsys, monkeypatch):
    """The determinant report is built inside the epsilon check, so an
    identity failure there fails that check alone and keeps the report."""
    import hrep.cli as cli_module

    _, out, _ = run_cli(capsys, "verify", "--builtin", "d8")
    passing = json.loads(out)
    assert passing["det_reports"]

    def failing_det_report(pair):
        raise IdentityFailed("stubbed det report")

    monkeypatch.setattr(cli_module, "build_det_report", failing_det_report)
    code, out, _ = run_cli(capsys, "verify", "--builtin", "d8")
    assert code == EXIT_MATH_FAILURE
    report = json.loads(out)
    assert report["det_reports"] == []
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["check"] for c in failed] == [
        f"epsilon_case_split[{j}]" for j in range(passing["n_pairs"])
    ]
    assert {c["stats"]["error"] for c in failed} == {"IdentityFailed: stubbed det report"}
    assert [c for c in report["checks"] if c["pass"]] == [
        c for c in passing["checks"] if c["check"] != "epsilon_case_split"
    ]


def test_identity_failure_outside_a_check_exits_one(capsys, monkeypatch):
    import hrep.cli as cli_module

    def failing_enumeration(group, max_order):
        raise IdentityFailed("stubbed identity")

    monkeypatch.setattr(cli_module, "enumerate_pairs", failing_enumeration)
    code, out, err = run_cli(capsys, "verify", "--builtin", "d8")
    assert code == EXIT_MATH_FAILURE
    assert out == ""
    assert "IdentityFailed: stubbed identity" in err


def test_verify_checks_the_pair_bound_before_transfer_work(capsys, monkeypatch):
    import hrep.cli as cli_module

    calls = []
    real = cli_module.transfer.transfer_instances

    def counting(group):
        calls.append(group.order)
        return real(group)

    monkeypatch.setattr(cli_module.transfer, "transfer_instances", counting)
    code, out, _ = run_cli(capsys, "verify", "--builtin", "heis7")
    assert code == EXIT_BOUND_EXCEEDED
    assert out == ""
    assert calls == []


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", ("d8", "heis3", "cp:d8,q8"))
def test_verify_is_identical_under_python_O(name):
    """Identity checks raise explicitly, so -O (which strips assert
    statements) changes neither the report nor the exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "hrep.cli", "verify", "--builtin", name],
            capture_output=True,
            env=env,
            timeout=600,
        )
        for flags in ((), ("-O",))
    ]
    assert runs[0].returncode == EXIT_OK
    assert runs[1].returncode == runs[0].returncode
    assert runs[1].stdout == runs[0].stdout != b""


def test_library_has_no_assert_statements():
    for path in sorted((SRC / "hrep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name} uses assert at lines {found}"


# The definitions of src/hrep that may call QmodZ(...): the class itself and
# the shared residue-to-exponent table.
QMODZ_BUILDERS = {"QmodZ", "_exponents"}


def test_qmodz_is_built_only_at_the_report_boundary():
    """Everywhere else a value is a residue mod N, module constants
    included."""
    found = {}
    for path in sorted((SRC / "hrep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in QMODZ_BUILDERS
            for node in ast.walk(top)
        }
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "QmodZ"
            and id(node) not in allowed
        ]
        if lines:
            found[path.name] = lines
    assert not found, f"QmodZ built outside the report boundary: {found}"


def test_groups_are_not_mutated_after_construction():
    """``label`` and ``coset_reps`` are assigned only in FiniteGroup.__init__."""
    for path in sorted((SRC / "hrep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "FiniteGroup"
            for init in cls.body
            if isinstance(init, ast.FunctionDef) and init.name == "__init__"
            for node in ast.walk(init)
        }
        found = [
            target.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for target in ast.walk(target)
            if isinstance(target, ast.Attribute)
            and target.attr in ("label", "coset_reps")
            and id(target) not in allowed
        ]
        assert not found, f"{path.name} sets a group attribute at lines {found}"


# Public definitions that nothing in src/ references but that stay, with the
# reason each one is kept; methods are named Class.method. The tests'
# references live in tests/reference.py, not here.
UNREFERENCED_ALLOWED: dict[str, str] = {}


def unreferenced_definitions(sources: dict[str, str]) -> set[str]:
    """The public top-level functions and classes, and the public methods of
    those classes, of the modules in ``sources`` ({module: source}) that no
    module references outside the definition itself (imports count)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def referenced(tree, skip=frozenset()):
        names = set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        return names

    elsewhere = {
        module: set().union(*(referenced(t) for m, t in trees.items() if m != module))
        for module in trees
    }
    definition = (ast.FunctionDef, ast.ClassDef)
    unreferenced = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, definition) or node.name.startswith("_"):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
            for name, item in members:
                inside = {id(n) for n in ast.walk(item)}
                if item.name not in elsewhere[module] | referenced(tree, inside):
                    unreferenced.add(name)
    return unreferenced


def src_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((SRC / "hrep").glob("*.py"))
    }


def test_every_public_definition_is_referenced_in_src():
    """Each public top-level function or class of src/hrep, and each public
    method of those classes, is referenced somewhere in src/ outside its own
    definition (imports count)."""
    assert unreferenced_definitions(src_sources()) == set(UNREFERENCED_ALLOWED)


@pytest.mark.parametrize("module", ["transfer", "orphan_module"])
def test_the_reference_scan_reports_an_injected_orphan(module):
    """A public function that nothing calls is reported, whether it is added
    to an existing module or arrives in a new one."""
    sources = src_sources()
    sources[module] = sources.get(module, "") + "\n\ndef orphan():\n    ...\n"
    assert unreferenced_definitions(sources) == {"orphan"}


# Every function and method defined in src/hrep that the traced sweep below
# does not run, named module.qualname, with the reason it stays.
TRACE_UNREACHED_ALLOWED = {
    "char_theory.QmodZ.__add__": "QmodZ arithmetic for the reference layer; QmodZ leaves src/ "
    "after ROADMAP item 5, as perfbench/tracer.py hooks QmodZ.__post_init__",
    "char_theory.QmodZ.__neg__": "as QmodZ.__add__",
    "char_theory.QmodZ.__sub__": "as QmodZ.__add__",
    "char_theory.QmodZ.order": "as QmodZ.__add__",
    "char_theory.LinearCharacter.__call__": "a value as a QmodZ, read by the reference layer; "
    "goes with QmodZ",
    "char_theory.LinearCharacter.__eq__": "value equality, which only the tests use",
    "char_theory.LinearCharacter.__hash__": "pairs with LinearCharacter.__eq__",
    "group_core.FiniteGroup.__len__": "protocol method of the library API; no command calls it",
    "group_core.FiniteGroup.__repr__": "protocol method of the library API; no command calls it",
    "group_core.FiniteGroup.commutator": "scalar element operation of the library API; the array "
    "code reads the tables",
    "group_core.FiniteGroup.inv": "scalar element operation of the library API; the array code "
    "reads the tables",
    "group_core.FiniteGroup.conjugate": "error path: names the conjugator of a failed image "
    "statement",
    "group_core.Subgroup.__contains__": "protocol method of the library API; the array code reads "
    "mask",
    "group_core.Subgroup.__iter__": "protocol method of the library API; the array code reads "
    "members",
    "group_core._table_only": "a decorator, which runs at import, before the trace starts",
    "cli._key_text": "renders a non-string JSON key, which no report has, as json.dumps does",
    "errors.NotACharacter.__init__": "error path: a value map that is not a character",
    "transfer.CheckReport.fail": "error path: a failed identity",
    "transfer.CheckReport.compare": "error path: a failed identity",
    "transfer._compare_conjugates": "error path: a failed covariance certificate, or a "
    "non-normal H",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """{(module, first line): module.qualname} of every function and method
    defined in src/hrep, nested ones included. The first line is the one a
    code object's ``co_firstlineno`` names: the first decorator's, if any."""
    names = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[module, first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, prefix)

    for module, source in src_sources().items():
        visit(ast.parse(source), module, "")
    return names


def traced_sweep(tmp_path) -> set[tuple[str, int]]:
    """(module, first line) of every code object of src/hrep that runs, under
    sys.setprofile, while the CLI runs verify (JSON and TSV), group-info,
    heisenberg and p3, a table file, a construct file and the malformed
    inputs the tests plant. Each command's exit code is checked."""
    from test_group_core import LOOP5

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    construct = {
        "family": "direct_product",
        "params": {
            "factors": [
                {"family": "abelian", "params": {"factors": [2]}},
                {"family": "central_product", "params": {"factors": [
                    {"family": "dihedral", "params": {"order": 8}},
                    {"family": "quaternion8"},
                ]}},
            ]
        },
    }
    malformed = [
        [[0, 1], [1, 0]],
        {"cayley_table": [[0, 1], [1]]},
        {"cayley_table": [["e", "a"], ["a", "e"]]},
        {"cayley_table": [[None]]},
        {"cayley_table": [[0.5]]},
        {"cayley_table": [[0, 1.7], [1.2, 0]]},
        {"cayley_table": [[0, 1], [1, 1]]},
        {"cayley_table": LOOP5},
        {"label": "x"},
        {"label": ["a"], "cayley_table": [[0]]},
        {"construct": {"family": "abelian", "params": {"factors": "12"}}},
        {"construct": {"family": "cyclic", "params": {"n": 7.9}}},
    ]
    runs = [(EXIT_OK, ["verify", "--builtin", name, *fmt])
            for name in ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,2,2")
            for fmt in ((), ("--format", "tsv"))]
    runs += [
        (EXIT_OK, ["group-info", "--builtin", "heis3"]),
        (EXIT_OK, ["heisenberg", "--builtin", "heis3"]),
        (EXIT_OK, ["p3", "5"]),
        (EXIT_OK, ["verify", "--input", write("z3.json", {
            "label": "z3", "cayley_table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})]),
        (EXIT_OK, ["group-info", "--input", write("cp.json", {"construct": construct})]),
        (EXIT_INPUT_ERROR, ["group-info", "--input", str(tmp_path / "missing.json")]),
        (EXIT_INPUT_ERROR, ["p3", "4"]),
        (EXIT_BOUND_EXCEEDED, ["verify", "--builtin", "c300"]),
    ]
    runs += [(EXIT_INPUT_ERROR, ["verify", "--input", write(f"bad{i}.json", payload)])
             for i, payload in enumerate(malformed)]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    got = []
    quiet = io.StringIO()
    sys.setprofile(profile)
    try:
        for _, argv in runs:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                got.append(main(argv))
    finally:
        sys.setprofile(None)
    assert got == [code for code, _ in runs]
    package = SRC / "hrep"
    return {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in codes
        if Path(code.co_filename).parent == package
    }


def test_every_definition_in_src_runs_in_a_traced_sweep(tmp_path):
    """Every function and method defined in src/hrep runs in the sweep,
    but for the allowlist, each entry with its reason; an entry that runs
    leaves the list. The sweep runs in a fresh interpreter, so that no
    module-level memo filled by another test skips a call."""
    assert all(TRACE_UNREACHED_ALLOWED.values())
    defined = defined_functions()
    assert set(TRACE_UNREACHED_ALLOWED) <= set(defined.values())
    script = (
        "import json, sys; from pathlib import Path; from test_cli import traced_sweep; "
        "print(json.dumps(sorted(traced_sweep(Path(sys.argv[1])))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    sweep = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, env=env, timeout=600, check=True, text=True,
    )
    ran = {tuple(key) for key in json.loads(sweep.stdout)}
    assert {name for key, name in defined.items() if key not in ran} == set(TRACE_UNREACHED_ALLOWED)


# -- file input --------------------------------------------------------------------


def test_group_file_with_table(tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text(
        json.dumps({"label": "z3", "cayley_table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    )
    code, out, _ = run_cli(capsys, "group-info", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["label"] == "z3"


def test_group_file_with_construct(tmp_path, capsys):
    path = tmp_path / "es.json"
    path.write_text(
        json.dumps(
            {
                "label": "es27",
                "construct": {"family": "extraspecial_p3_exp_p2", "params": {"p": 3}},
            }
        )
    )
    code, out, _ = run_cli(capsys, "group-info", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["order"] == 27


def test_group_file_missing_keys(tmp_path, capsys):
    path = tmp_path / "nothing.json"
    path.write_text(json.dumps({"label": "x"}))
    code, _, err = run_cli(capsys, "group-info", "--input", str(path))
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize(
    "payload,error",
    [
        ([[0, 1], [1, 0]], "InvalidSpec"),
        ({"cayley_table": [[0, 1], [1]]}, "NotAGroup"),
        ({"cayley_table": [["e", "a"], ["a", "e"]]}, "NotAGroup"),
        ({"cayley_table": [[None]]}, "NotAGroup"),
        ({"cayley_table": [[0.5]]}, "NotAGroup"),
        ({"cayley_table": [[0, 1.7], [1.2, 0]]}, "NotAGroup"),
    ],
)
def test_malformed_group_file_is_input_error(tmp_path, capsys, payload, error):
    """A top-level array, a ragged table or non-integer entries are input
    errors (exit 2), neither a crash nor a silently truncated table."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INPUT_ERROR
    assert err.startswith(f"hrep: {error}:")
    assert out == ""


@pytest.mark.parametrize("label", (["a"], 3, None))
@pytest.mark.parametrize("source", ("cayley_table", "construct"))
def test_non_string_label_is_input_error(tmp_path, capsys, label, source):
    """The label is printed as the report's group name, so anything but a
    string is an input error rather than a list or number in the output."""
    body = {
        "cayley_table": [[0, 1], [1, 0]],
        "construct": {"family": "cyclic", "params": {"n": 2}},
    }[source]
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"label": label, source: body}))
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == EXIT_INPUT_ERROR
    assert err.startswith("hrep: InvalidSpec:")
    assert out == ""


@pytest.mark.parametrize(
    "params",
    ({"family": "abelian", "params": {"factors": "12"}}, {"family": "cyclic", "params": {"n": 7.9}},
     {"family": "cyclic", "params": {"n": True}}),
)
def test_construct_file_parameters_must_be_json_integers(tmp_path, capsys, params):
    """A construct file whose integer parameters are a string, a float or a
    bool is an input error, not the group int() would coerce them to."""
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"label": "x", "construct": params}))
    for verb in ("group-info", "verify"):
        code, out, err = run_cli(capsys, verb, "--input", str(path))
        assert code == EXIT_INPUT_ERROR
        assert err.startswith("hrep: InvalidSpec: bad parameters for family")
        assert out == ""


def test_group_file_unreadable(capsys):
    code, _, err = run_cli(capsys, "group-info", "--input", "/nonexistent.json")
    assert code == EXIT_INPUT_ERROR


# -- p3 ---------------------------------------------------------------------------


def test_p3_command(capsys):
    code, out, _ = run_cli(capsys, "p3", "3")
    assert code == EXIT_OK
    report = json.loads(out)
    kinds = {row["kind"]: row["det_trivial"] for row in report["rows"]}
    assert kinds == {"exponent_p": True, "exponent_p2": False}


def test_p3_rejects_two_and_composites(capsys):
    # and 13, the least odd prime with p^3 above the order bound
    for p in ("2", "4", "13"):
        code, _, err = run_cli(capsys, "p3", p)
        assert code == EXIT_INPUT_ERROR


# -- tsv format --------------------------------------------------------------------


def test_tsv_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "heisenberg", "--builtin", "d8", "--format", "tsv")
    _, out2, _ = run_cli(capsys, "heisenberg", "--builtin", "d8", "--format", "tsv")
    assert out1 == out2
    assert out1.startswith("group\td8")


def test_tsv_p3(capsys):
    code, out, _ = run_cli(capsys, "p3", "3", "--format", "tsv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p\t3"
    assert len(lines) == 3


# -- JSON rendering ------------------------------------------------------------------


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# escapes, non-ASCII and astral characters; keys of every kind json coerces
json_text = st.text() | st.sampled_from(['"', "\\", "\n\t", "\x00", "caf\u00e9", "\u2028", "\U0001f600"])
json_keys = json_text | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=3),
    max_leaves=30,
)


def ladder(depth):
    """Flat containers of two items at every depth from 2 to ``depth``."""
    return [1, "x"] if depth == 1 else [{"a": 1, "b": None}, ladder(depth - 1)]


@settings(max_examples=300, deadline=None)
@given(json_values)
@example(ladder(8))
@example([])
@example({"a": [{}, [[]], {"b": []}], "c": {"d": {"e": [1, -2, None, True]}}})
@example([[[[["deep", {"k": "\u00e9\n"}]]]], []])
@example({1: [2], 2.5: {True: [None]}, -3: {False: {}}})
@example({1: [2], None: 3.5, "x": {False: {}}})
def test_render_json_is_json_dumps(value):
    """Byte for byte what the pure-Python encoder writes, or the same
    TypeError when json refuses the keys (a dict mixing key types that
    do not sort)."""
    try:
        expected = dumps(value)
    except TypeError:
        with pytest.raises(TypeError):
            _render_json(value)
        return
    assert _render_json(value) == expected


@pytest.mark.parametrize("value", [{(1, 2): 0}, {(1, 2): [0]}, [{"a": {(1, 2): [0]}}]])
def test_render_json_refuses_the_keys_json_refuses(value):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps(value)
    with pytest.raises(TypeError, match="keys must be str"):
        _render_json(value)


# -- golden bytes --------------------------------------------------------------------


GROUP_INFO_D8_GOLDEN = """\
{
  "abelianization_factors": [
    2,
    2
  ],
  "center": [
    0,
    4
  ],
  "commutator_subgroup": [
    0,
    4
  ],
  "label": "d8",
  "lower_central_series_sizes": [
    8,
    2,
    1
  ],
  "nilpotency_class": 2,
  "order": 8,
  "squares_subgroup": [
    0,
    4
  ]
}
"""


def test_group_info_d8_golden_bytes(capsys):
    """Sorted keys and deterministic orderings make reports byte-stable."""
    code, out, _ = run_cli(capsys, "group-info", "--builtin", "d8")
    assert code == EXIT_OK
    assert out == GROUP_INFO_D8_GOLDEN


# sha256 of `verify --builtin G` stdout, pinned when the determinant and
# transfer routes became whole-group tables; any change to a route that
# alters a single byte of the report fails here
VERIFY_STDOUT_SHA256 = {
    ("d8", "json"): "8f3a36c096e3de01e2084491e7c29d2b0702db92c6bd44f443c77b35bf607102",
    ("q8", "json"): "df91671270e9f35dc1f8b24bf573b1fd05a6f613b1328d8a100a351d2303e728",
    ("heis3", "json"): "155bace338b87b2589da91d20164c4d9f12ccdb07f4dd7359db7a7c71cb9889c",
    ("es_p3_exp_p2:3", "json"): "c5bb0c255f79cd914ba8fb29ed46934fb9aa17c91d8b2c151e71c98d570389dd",
    ("cp:d8,q8", "json"): "7047c484f1e9465552149a5b5a7e94ea04858d68f6e0db98da63d5a18228f912",
    ("ab:2,2,2,2", "json"): "0b643e3358c614dd437abc58555929224d17eb5bd8221438a0aad5f30aab9310",
    ("d16", "json"): "104db6853d7cb44f562c8b927a94fd05611af0ba721e6fa36d65b811a6dc5bb1",
    ("d128", "json"): "4f1c7e93b2b15f4cf15e6bb63d78d084dcd78a9e87a0e27445c5c691dd61de6d",
    ("heis3", "tsv"): "21b17cc2eb932c8a24d0e0ab4b122bfc732779e5be0435cd4a560fde0c2e2b11",
    ("ab:2,6,12", "json"): "e1b5ac48169f9d3de3015efe3334ea087b7b2cc31d40ba5a1ee5a38712761469",
    ("prod:d8,d8", "json"): "36201f7661b15727dd6eecb9aa96b2d9649a6df3ed109a16dacb6a400f469463",
    # pinned before the transfer checks of one index ran as one block pass
    ("ab:2,2,2,2,2", "json"): "184f1184791ac73e7790e1ecd362d7c61b3cb9ba78206f73c64225789b26f328",
    ("ab:4,4", "json"): "d6cb9490477d05fe8a92beafac38b58bcf886716c007085d2c5ce044f2b52461",
    ("ab:3,3,3", "json"): "404beb1d075168696d78f04ecd690faef3ce76b84bc7a552106521829a244d46",
    ("ab:2,2,2,2,2,2", "json"): "ccde1403f2baef6e366be5e967b11027de9c564113ba1496c3974e4f509c9647",
}


@pytest.mark.parametrize("name,fmt", sorted(VERIFY_STDOUT_SHA256))
def test_verify_golden_sha256(capsys, name, fmt):
    code, out, _ = run_cli(capsys, "verify", "--builtin", name, "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[(name, fmt)]


# sha256 of the stdout of pair enumeration and of the p^3 classification,
# pinned before character, normality and [G,G] checks moved to generator
# certificates; the order-343, product and TSV enumerations were pinned
# before G/Z became one record per scalar subgroup and before the JSON
# renderer stopped running every value through the pure-Python encoder;
# the enumerations of cp:d8,q8 and prod:d8,d8, which print the characters
# of every candidate scalar subgroup, nonabelian ones included, were pinned
# before H/[H,H] was read from one least-id array
STDOUT_SHA256 = {
    ("heisenberg", "--builtin", "heis3"): "c2c122f70ea0d1202c4f0cc296d6f4c3a775cb945f97e5e1b98461cce379ca87",
    ("heisenberg", "--builtin", "heis3", "--format", "tsv"): "c86af1108ef07a291976d209d2d76890ebdf79735947313f4233b46680c56213",
    ("heisenberg", "--builtin", "heis7", "--max-order", "512"): "8acf9011b20d425ab2a679795428c28ce3e8fd9815f49bc23cee8d6f5b0188e6",
    ("heisenberg", "--builtin", "es_p3_exp_p2:7", "--max-order", "512"): "130911b9fc5eac025c099e383a629e0e8baccb08d411d9476a84b3bab28f4894",
    ("heisenberg", "--builtin", "prod:q8,c16"): "37511d6154800df266e8628e3ba90fa13ec7d900d2dc778080a5686b6434e14f",
    ("p3", "5"): "4f1dbf47b1963553ece8020718fd60b8ee432a1ead32c5859063ea540d01b1f2",
    ("heisenberg", "--builtin", "cp:d8,q8"): "f3bd84446d7b3f55826b5e7dd92cdea841b1debb024942f7bff21f1c1fc12db2",
    ("heisenberg", "--builtin", "prod:d8,d8"): "542534aa7ede19ad8a678932b74fe279015b2456d285146986319d4778c59c45",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_command_golden_sha256(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
