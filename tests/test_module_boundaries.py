"""No gits module reads another gits module's underscore names."""

import ast
from pathlib import Path

import gits

SOURCE = Path(gits.__file__).parent
MODULES = {path.stem for path in SOURCE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    """Each ``"line: m._x"`` by which the module at ``path`` reads an
    underscore name of another gits module ``m``: ``from .m import _x``, or
    ``m._x`` where ``m`` is bound by ``from . import m`` (or their absolute
    ``gits.`` forms)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> the gits module it is bound to
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module if node.level == 0 else ".".join(["gits", node.module or ""])
        if package.rstrip(".") == "gits":  # from . import m
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in MODULES)
        elif package.startswith("gits."):  # from .m import name
            module = package.split(".")[1]
            reads += [(node.lineno, f"{module}.{a.name}") for a in node.names
                      if _private(a.name) and module != path.stem]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and _private(node.attr) and aliases.get(node.value.id, path.stem) != path.stem):
            reads.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(reads)]


def test_no_gits_module_reads_another_modules_underscore_names():
    found = {path.name: private_reads(path) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_private_reads_finds_every_form_and_skips_public_and_own_names(tmp_path):
    path = tmp_path / "harness.py"  # read as the gits module of that name
    path.write_text(
        "from . import pde_data, surrogate as sg\n"
        "from .surrogate import _Workspace, stack_size\n"
        "from gits.pde_data import _pair_file\n"
        "from gits import selector as sel, harness\n"
        "from .harness import _Run\n"
        "x = pde_data._pair_stem, sg._stack_loss_grad, sel._check_budget, sel.top_k\n"
        "y = pde_data.__name__, _Run._fields, harness._Run, other._private\n"
        "def f():\n"
        "    from .selector import _score_vector\n"
    )
    assert private_reads(path) == [
        "2: surrogate._Workspace",
        "3: pde_data._pair_file",
        "6: pde_data._pair_stem",
        "6: selector._check_budget",
        "6: surrogate._stack_loss_grad",
        "9: selector._score_vector",
    ]
