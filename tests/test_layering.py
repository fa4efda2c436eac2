"""Import layering of the package, read from its source with ast.

Modules may import only modules earlier in ORDER, which refines
data -> network -> gram -> {theory, optim, linearized} -> cli.  No module
reaches into another's private names, PD_FLOOR is defined once and the
PD guard written once (in gram), the activation tie rule is written once
for network weights, and the Jacobian is never made dense nor the Gram
wrapped in a class.  Only data spells artifact values: optim and cli call
no repr.  In cli, main alone reports a failure and picks its exit code, and
the atomic writer alone creates directories.  Every third-party module the tests import is declared in
pyproject.toml.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "natgrad"
ORDER = (
    "_version", "errors", "data", "forster", "network", "gram",
    "theory", "optim", "linearized", "cli", "__main__", "__init__",
)


def parse(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def imported(tree):
    """(module, name) for each natgrad import; name is None for a module
    import.  Also returns the local aliases bound to natgrad modules."""
    pairs, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("natgrad"):
                continue
            module = (node.module or "").removeprefix("natgrad").lstrip(".")
            for alias in node.names:
                if module:
                    pairs.append((module, alias.name))
                else:  # from . import gram
                    pairs.append((alias.name, None))
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("natgrad."):
                    module = alias.name.removeprefix("natgrad.")
                    pairs.append((module, None))
                    if alias.asname:
                        aliases[alias.asname] = module
    return pairs, aliases


def private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_module_is_ordered():
    assert {p.stem for p in SRC.glob("*.py")} == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_imports_go_one_way(name):
    pairs, _ = imported(parse(name))
    for module, _ in pairs:
        assert ORDER.index(module) < ORDER.index(name), f"{name} imports {module}"


@pytest.mark.parametrize("name", ORDER)
def test_no_private_names_across_modules(name):
    tree = parse(name)
    pairs, aliases = imported(tree)
    used = [f"{module}.{item}" for module, item in pairs if item and private(item)]
    used += [
        f"{aliases[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and private(node.attr)
    ]
    assert used == [], f"{name} uses private names {used}"


def test_pd_floor_defined_once():
    defined = [
        name
        for name in ORDER
        for node in ast.walk(parse(name))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "PD_FLOOR"
    ]
    assert defined == ["gram"]


def linalg_call_names(name):
    """The f of each np.linalg.f(...) or numpy.linalg.f(...) call in a module."""
    return [
        node.func.attr
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) in ("np.linalg", "numpy.linalg")
    ]


def test_pd_guard_written_once():
    """np.linalg.cholesky and np.linalg.solve are called in gram only (its
    guarded_solve), and optim calls no numpy.linalg function but pinv, its
    least-squares fallback.  No module imports from numpy.linalg, so every
    call is spelled np.linalg.f and the scan sees it."""
    for name in ORDER:
        for node in ast.walk(parse(name)):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "numpy.linalg", name
            elif isinstance(node, ast.Import):
                assert "numpy.linalg" not in {alias.name for alias in node.names}, name
    guards = {
        name: sorted(set(linalg_call_names(name)) & {"cholesky", "solve"}) for name in ORDER
    }
    assert {name: found for name, found in guards.items() if found} == {
        "gram": ["cholesky", "solve"]
    }
    assert set(linalg_call_names("optim")) == {"pinv"}


def test_eigenvalue_solve_in_gram_only():
    """np.linalg.eigvalsh is called in gram only: other modules take a
    spectrum from gram.spectrum (or gram.min_eig), which checks symmetry."""
    found = [name for name in ORDER if "eigvalsh" in linalg_call_names(name)]
    assert found == ["gram"]


def test_tie_rule_written_once():
    """The activation rule z >= 0.0, written as a comparison or as
    np.greater_equal(z, 0.0), appears in network._active for network
    weights and in gram.mc_limiting_gram for its random draws, nowhere
    else.  network.forward and network.activation_pattern both take it
    from network._active, and activation_pattern does not call forward."""

    def is_rule(node):
        if isinstance(node, ast.Compare):
            op, right = node.ops[0], node.comparators[0]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "greater_equal":
            op, right = ast.GtE(), node.args[1]
        else:
            return False
        value = getattr(right, "value", None)
        return isinstance(op, ast.GtE) and type(value) is float and value == 0.0

    found = [
        f"{name}.{fn.name}"
        for name in ORDER
        for fn in ast.walk(parse(name))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if is_rule(node)
    ]
    assert sorted(found) == ["gram.mc_limiting_gram", "network._active"]

    called = {
        fn.name: {node.func.id for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        for fn in ast.walk(parse("network"))
        if isinstance(fn, ast.FunctionDef) and fn.name in ("forward", "activation_pattern")
    }
    assert "_active" in called["forward"] and "_active" in called["activation_pattern"]
    assert "forward" not in called["activation_pattern"]


def test_no_dense_jacobian_or_gram_wrapper():
    """No module defines or calls anything named dense (the n x m*d
    Jacobian lives in tests/oracles.py only) or defines GramMatrix (the
    Gram builders return the n x n array)."""
    found = []
    for name in ORDER:
        for node in ast.walk(parse(name)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined = node.id
            else:
                defined = None
            if defined in ("dense", "GramMatrix"):
                found.append(f"{name} defines {defined}")
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "attr", getattr(func, "id", None)) == "dense":
                    found.append(f"{name} calls dense")
    assert found == []


def test_cell_rule_written_in_data_only():
    """optim and cli call no repr: every value they write is spelled by
    data.cells or data.jsonable."""
    found = [
        name
        for name in ("optim", "cli")
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr"
    ]
    assert found == []


def test_cli_failures_and_directories_decided_once():
    """In cli, only main and _show_warning touch sys.stderr, no cmd_*
    handler returns a value (a failure raises, and main maps it to its exit
    code), and only _atomic_via creates a directory."""
    def own_nodes(fn):
        """The nodes of fn's body, without those of functions nested in it."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, ast.FunctionDef):  # ast.walk visits it on its own
                stack.extend(ast.iter_child_nodes(node))

    stderr, returns, mkdirs = [], [], []
    for fn in ast.walk(parse("cli")):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in own_nodes(fn):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr":
                stderr.append(fn.name)
            elif isinstance(node, ast.Return) and node.value is not None:
                returns.append(fn.name)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "mkdir":
                mkdirs.append(fn.name)
    assert set(stderr) == {"main", "_show_warning"}
    assert [name for name in returns if name.startswith("cmd_")] == []
    assert mkdirs == ["_atomic_via"]


def test_third_party_test_imports_are_declared():
    """Each top-level module imported under tests/ is in the standard
    library, natgrad, tests/ itself, or pyproject.toml's dependencies and
    test extra, so installing ".[test]" is enough to run the suite."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    tests = list((ROOT / "tests").glob("*.py"))
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {p.stem for p in tests} - {"natgrad"}
    assert third_party, "no third-party import found; the scan is broken"
    assert third_party <= declared, f"undeclared test imports: {sorted(third_party - declared)}"
