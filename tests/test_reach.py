"""Guard against code and data that only tests reach.

Every top-level function and class, every non-dunder method and every
``@dataclass`` field defined in ``src/sesvqe`` must be named somewhere in the
program: in ``src/sesvqe`` or in the benchmark harness ``perfbench/*.py``
(``__init__.py`` re-exports and the harness's own tests do not count).  A name
counts as a ``Name``, an ``Attribute`` or a string constant that is an
identifier, which covers the harness's wrap table of ``(module, attribute)``
strings.  A field is read through an attribute or a ``getattr`` string, so
only those name it; a bare local of the same name does not.  An unread field
is reported as ``Class.field``.

A second guard keeps the dense matrix of a ``SiteHamiltonian`` behind its own
methods: no module of ``src/sesvqe`` but ``hamiltonian.py`` reads a
``.matrix`` attribute, so a change of how ``h`` is stored touches one module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions that no program path names yet, each kept on purpose
ALLOWED = {
    "decompose": "acceptance criterion 4 checks the decomposed CNOT count",
    "binary_ansatz_cnot_total": "acceptance criterion 4 fits its slope",
    "scaling_exponent": "acceptance criterion 4 fits the CNOT slope with it",
    "leading_figure": "acceptance criterion 8 prints the N = 2^20 figures with it",
    "gray_sequence": "the Gray-code register builder (ROADMAP item 2) orders its cascade by it",
    "diff_sets": "the Gray-code register builder (ROADMAP item 2) splits each module's pair with it",
    "gate_counts": "the Gray-code register's measured volume (ROADMAP item 2) reads it",
    "from_matrix": "the tests' constructor of SiteHamiltonian instances",
}


def program_files():
    src = sorted((ROOT / "src" / "sesvqe").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    return [p for p in src + bench if p.name != "__init__.py" and not p.name.startswith("test_")]


def is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def fields(node):
    """The annotated field declarations of a ``@dataclass`` class body."""
    if not is_dataclass(node):
        return
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item


def definitions(tree):
    """(name, label, is_field, line) of each top-level function and class, each
    non-dunder method and each dataclass field (labelled ``Class.field``)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.name, False, item.lineno
            for item in fields(node):
                yield item.target.id, f"{node.name}.{item.target.id}", True, item.lineno


def named(tree, fields_only=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not fields_only:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def unreached(files):
    """Definitions in the ``src`` files of ``files`` that none of ``files`` names."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    used = {name for tree in trees.values() for name in named(tree)}
    read = {name for tree in trees.values() for name in named(tree, fields_only=True)}
    return sorted(
        (label, f"{path.name}:{line}")
        for path, tree in trees.items()
        if path.parent.name == "sesvqe"
        for name, label, is_field, line in definitions(tree)
        if name not in (read if is_field else used)
    )


def test_every_src_definition_is_reached_by_the_program():
    found = unreached(program_files())
    assert [(name, where) for name, where in found if name not in ALLOWED] == []
    # an allowlist entry that the program now reaches, or that is gone, is stale
    assert sorted(ALLOWED) == sorted(name for name, _ in found)


def test_guard_sees_an_unreached_helper(tmp_path):
    pkg = tmp_path / "sesvqe"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef helper():\n    return used()\n\n\n"
        "class Box:\n    def read(self):\n        return Box().read\n\n    def unused(self):\n        pass\n"
    )
    assert unreached([pkg / "mod.py"]) == [("helper", "mod.py:5"), ("unused", "mod.py:13")]


def test_guard_sees_an_unread_dataclass_field(tmp_path):
    pkg = tmp_path / "sesvqe"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\nclass Record:\n    size: int\n    note: str = field(default='')\n\n\n"
        "@dataclass\nclass Other:\n    size: int\n\n\n"
        "class Plain:\n    label: str\n\n\n"
        "def total(record: Record, other: Other, plain: Plain, note=''):\n"
        "    return record.size + len(note)\n\n\nprint(total)\n"
    )
    # a local named ``note`` reads no field; names are matched, not classes,
    # so reading ``size`` covers both fields of that name; a plain class's
    # annotations are no fields
    assert unreached([pkg / "mod.py"]) == [("Record.note", "mod.py:7")]


def matrix_reads(files):
    """``file:line`` of each ``.matrix`` attribute read outside ``hamiltonian.py``."""
    return sorted(
        f"{path.name}:{node.lineno}"
        for path in files
        if path.name != "hamiltonian.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    )


def test_only_the_hamiltonian_module_reads_the_dense_matrix():
    assert matrix_reads(sorted((ROOT / "src" / "sesvqe").glob("*.py"))) == []


def test_guard_sees_a_planted_matrix_read(tmp_path):
    pkg = tmp_path / "sesvqe"
    pkg.mkdir()
    (pkg / "hamiltonian.py").write_text("def energy(h, a):\n    return a @ h.matrix @ a\n")
    (pkg / "vqe.py").write_text("def cost(plan, a):\n    return plan.target.energy(a)\n\n\n"
                                "def report(plan, a):\n    return a @ plan.target.matrix @ a\n")
    assert matrix_reads([pkg / "hamiltonian.py", pkg / "vqe.py"]) == ["vqe.py:6"]
