"""The module stack of ``qhcalc``: each module imports only the modules below it,
and nothing outside the standard library; the record formats stay in
``serialize``, so ``cli`` calls none of its record readers or writers; a
class is a dataclass only when a NamedTuple cannot serve (``DATACLASSES``);
a ring kind states only its basis and its structure (``RING_KIND_METHODS``);
and ``cli.main`` names every exception class the package defines.

Every import is collected from the source with ``ast``, including imports
inside functions, so a lazy upward import fails here too.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import qhcalc

PACKAGE = Path(qhcalc.__file__).resolve().parent

# module -> the package modules it may import
ALLOWED = {
    "__init__": set(),
    "qalgebra": set(),
    "spectra": {"qalgebra"},
    "rings": {"qalgebra"},
    "ladders": {"qalgebra"},
    "models": {"qalgebra", "spectra"},
    "carriers": {"ladders", "spectra"},
    "serialize": {"qalgebra", "rings", "spectra", "ladders", "carriers", "models"},
    "cli": {"qalgebra", "spectra", "ladders", "models", "carriers", "serialize"},
}


def package_imports(path: Path) -> set:
    """The package modules that one source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            named = [alias.name for alias in node.names]
            found.update(n.partition(".")[2] or "__init__" for n in named
                         if n.partition(".")[0] == "qhcalc")
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "qhcalc"
        ):
            # from .m import x, from qhcalc.m import x: m; from . import m: m
            module = node.module if node.level else node.module.partition(".")[2]
            found.update([module] if module else (alias.name for alias in node.names))
    return {name.partition(".")[0] for name in found}


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_lower_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    assert imported <= ALLOWED[module], f"{module} imports {sorted(imported - ALLOWED[module])}"


def outside_imports(path: Path) -> set:
    """The top-level names of the modules one source file imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_the_standard_library(module):
    """qhcalc has no runtime dependency."""
    outside = outside_imports(PACKAGE / f"{module}.py") - sys.stdlib_module_names - {"qhcalc"}
    assert not outside, f"{module} imports {sorted(outside)}"


def imported_names(tree: ast.Module) -> set:
    """The names that a module's imports bind, ``from __future__`` aside."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found.update(alias.asname or alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_every_import_is_read(module):
    """A name that a module imports and never reads is a stale import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    stale = imported_names(tree) - read
    assert not stale, f"{module} imports {sorted(stale)} and never reads them"


def test_cli_reads_no_record():
    """``reading`` and ``json_typed`` read a record's keys; cli names neither,
    so a record format, a scenario's included, is read whole by serialize."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"reading", "json_typed"}


def test_cli_calls_no_record_writer():
    """A handler returns the package's values and ``serialize.to_json``
    writes each one, so cli names no writer: neither ``frac_to_str``,
    ``class_to_str`` nor any ``*_to_json``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    writers = {name for name in names if name.endswith(("_to_str", "_to_json"))}
    assert not writers, f"cli calls {sorted(writers)}"


# Public module-level names that nothing in the package refers to, each with
# the reason it stays.
UNREFERENCED = {
    "carriers.TableOrbit": "perfbench's alias of CappedOrbit (ROADMAP items 8 and 11)",
    "models.cpn_fixed_points": "perfbench calls and traces it (ROADMAP items 8 and 11)",
    "rings.kunneth": "perfbench builds CP^1 x CP^1 with it (ROADMAP items 8 and 11)",
    "serialize.monotone_to_json": "perfbench traces it, the round-trip tests read it "
                                  "(ROADMAP items 8 and 11)",
    "serialize.ring_to_json": "perfbench traces it, the round-trip tests read it "
                              "(ROADMAP items 8 and 11)",
    "serialize.model_to_json": "perfbench traces it, the golden tests read it "
                               "(ROADMAP items 8 and 11)",
    "carriers.check_assignment": "the independent checker of the carrier search",
    "rings.quantum_pieri": "the independent oracle of Grassmannian products",
    "ladders.ladder_class": "acceptance criterion 4 and the tests (ROADMAP item 5)",
    "ladders.pigeonhole_pair": "acceptance criterion 4 and the tests (ROADMAP item 5)",
    "ladders.case_ii_ladder": "acceptance criterion 8 and the tests (ROADMAP item 5)",
    "carriers.distinctness_check": "acceptance criterion 8 and the tests (ROADMAP item 5)",
}


def public_names(tree: ast.Module) -> set:
    """The names a module binds at top level by def, class or assignment,
    without a leading underscore."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in found if not name.startswith("_")}


def referenced_names(tree: ast.Module) -> set:
    """Every name a module reads, as a bare name, an attribute or an import;
    a top-level function's own name inside its own body is not a read, so a
    function that only calls itself stays unread."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                if node.id != own:
                    found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
    return found


def package_trees() -> dict:
    return {module: ast.parse((PACKAGE / f"{module}.py").read_text()) for module in ALLOWED}


def test_every_public_name_is_referenced():
    """A public name that nothing in the package reads is dead code, unless
    UNREFERENCED names it with its reason; a name listed there that gains a
    reader, or goes, leaves the list too."""
    trees = package_trees()
    read = set().union(*map(referenced_names, trees.values()))
    unread = {f"{module}.{name}" for module, tree in trees.items()
              for name in public_names(tree) - read}
    listed = set(UNREFERENCED)
    assert unread == listed, f"unread: {sorted(unread - listed)}, read: {sorted(listed - unread)}"


# Public methods that nothing in the package reads as an attribute, each with
# the reason it stays.
UNREAD_METHODS = {
    "qalgebra.GroundField.characteristic": "perfbench reads it (ROADMAP items 8 and 11)",
    "qalgebra.GroundField.inv": "perfbench calls it, tests/test_qalgebra.py checks it "
                                "(ROADMAP items 8 and 11)",
    "qalgebra.QuantumClass.scale": "perfbench and the tests call it (ROADMAP items 8 and 11)",
    "rings.RingPresentation.zero": "perfbench and the tests call it (ROADMAP items 8 and 11)",
}


def public_methods(tree: ast.Module) -> set:
    """(class, name) of each def without a leading underscore in the body of
    a top-level class, properties included."""
    return {(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def test_every_public_method_is_read():
    """A public method that nothing in the package reads as an attribute
    (``x.name``) is dead code, unless UNREAD_METHODS names it with its
    reason; a method listed there that gains a reader, or goes, leaves the
    list too.  Only attribute reads count: a bare name may be a local of the
    same name, as ``inv`` is in ``rings.rim_hook_reduce``."""
    trees = package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    unread = {f"{module}.{cls}.{name}" for module, tree in trees.items()
              for cls, name in public_methods(tree) if name not in read}
    listed = set(UNREAD_METHODS)
    assert unread == listed, f"unread: {sorted(unread - listed)}, read: {sorted(listed - unread)}"


# Dataclasses that neither validate a field in ``__post_init__`` nor cache
# with ``cached_property``, each with the reason it is not a NamedTuple, the
# type of every other record that only carries results.
DATACLASSES = {
    "qalgebra.QuantumClass": "its + and * are the ring's sum and product; a tuple type "
                             "would shadow them with concatenation and repetition",
    "ladders.Ladder": "perfbench's self-tests dataclasses.replace it (ROADMAP item 8)",
    "carriers.Verdict": "perfbench's self-tests dataclasses.replace it (ROADMAP item 8)",
}


def decorator_names(node) -> set:
    """The names a def or class is decorated with, ``@dataclass(frozen=True)``
    and ``@functools.cached_property`` read as dataclass and cached_property."""
    found = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        found.add(dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None))
    return found


def dataclass_needs() -> dict:
    """module.class -> whether it defines ``__post_init__`` or a
    ``cached_property``, for each ``@dataclass`` class of the package."""
    return {f"{module}.{node.name}": any(
                isinstance(item, ast.FunctionDef) and (
                    item.name == "__post_init__" or "cached_property" in decorator_names(item))
                for item in node.body)
            for module, tree in package_trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and "dataclass" in decorator_names(node)}


def test_a_dataclass_validates_caches_or_is_listed():
    """A record that only carries results is a NamedTuple, which costs a
    fraction of a dataclass to define at import; a dataclass validates or
    normalises a field in ``__post_init__`` (a NamedTuple cannot override
    ``__new__``), caches with ``cached_property`` (which needs an instance
    ``__dict__``), or is in DATACLASSES with its reason, and each class
    listed there is a dataclass that does neither."""
    needs = dataclass_needs()
    unlisted = {name for name, needed in needs.items() if not needed}
    listed = set(DATACLASSES)
    assert unlisted == listed, f"unlisted: {sorted(unlisted - listed)}, " \
                               f"listed: {sorted(listed - unlisted)}"


# The methods a ring kind in ``rings`` may define; every other label rule is
# read off the label table that ``_basis`` fills.
RING_KIND_METHODS = {"__post_init__", "N_chern", "_basis", "normalize_label", "structure"}


def test_a_ring_kind_states_its_basis_once():
    """Each subclass of ``RingPresentation`` defines no method outside
    RING_KIND_METHODS: its basis labels, their order and their degrees are
    one (label, degree) list, so no second rule for any of them can grow
    back in a kind."""
    tree = ast.parse((PACKAGE / "rings.py").read_text())
    kinds = [node for node in tree.body if isinstance(node, ast.ClassDef)
             and any(getattr(base, "id", None) == "RingPresentation" for base in node.bases)]
    assert {kind.name for kind in kinds} == {"CPn", "Grassmannian", "ProductRing"}
    extra = {f"{kind.name}.{item.name}" for kind in kinds for item in kind.body
             if isinstance(item, ast.FunctionDef) and item.name not in RING_KIND_METHODS}
    assert not extra, f"ring kinds define {sorted(extra)}"


def exception_classes() -> set:
    """module.class of each exception class that a package module defines."""
    found = set()
    for module in ALLOWED:
        namespace = vars(importlib.import_module(f"qhcalc.{module}"))
        found.update(f"{module}.{name}" for name, obj in namespace.items()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == f"qhcalc.{module}")
    return found


def main_catches() -> set:
    """The class names, bare or as an attribute, in the ``except`` clauses
    of ``cli.main``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    found = set()
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler) and handler.type:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            found.update(t.attr if isinstance(t, ast.Attribute) else t.id for t in types)
    return found


def test_cli_main_maps_every_exception():
    """``cli.main``'s ``except`` chain is the one table from exception type
    to exit code, so each exception class the package defines is named
    there: a refusal is a plain ``ValueError`` (exit 64), and a class that
    ``main`` does not tell apart from its base is not defined."""
    caught = main_catches()
    unmapped = {name for name in exception_classes() if name.rpartition(".")[2] not in caught}
    assert not unmapped, f"cli.main names no except clause for {sorted(unmapped)}"
