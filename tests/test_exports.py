import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import quongram

MODULES = sorted(m.name for m in pkgutil.iter_modules(quongram.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"quongram.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_lru_cache_is_bounded(name):
    module = importlib.import_module(f"quongram.{name}")
    found = [v for v in vars(module).values()
             if getattr(v, "__module__", None) == module.__name__]
    # a cache behind a staticmethod or classmethod sits on its __func__
    found += [getattr(v, "__func__", v) for cls in found
              if isinstance(cls, type) for v in vars(cls).values()]
    unbounded = [f.__qualname__ for f in found
                 if hasattr(f, "cache_parameters")
                 and f.cache_parameters()["maxsize"] is None]
    assert unbounded == []


# dataclasses and typing, and the modules they import: together about 27 ms
# and 1 MB of every cold process, none of it used after import
HEAVY = ("dataclasses", "typing", "inspect", "ast", "dis", "tokenize")


def test_cold_start_loads_no_heavy_modules():
    # quongram.cli imports every module; -S keeps site's imports out
    src = str(pathlib.Path(quongram.__path__[0]).parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import quongram.cli; "
            f"print([m for m in {HEAVY!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _private_defs(tree):
    """The private module-level functions and methods of a module, as
    (name, first line, last line); dunder methods are not private."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in body:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name.startswith("_")
                    and not d.name.endswith("__")):
                first = min([d.lineno] + [x.lineno for x in d.decorator_list])
                yield d.name, first, d.end_lineno


def _references(tree):
    """(name, line) of every name, attribute and imported name read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


SOURCES = {name: ast.parse(
    pathlib.Path(quongram.__path__[0], f"{name}.py").read_text())
    for name in MODULES}
REFERENCES = {(mod, ref, line) for mod, tree in SOURCES.items()
              for ref, line in _references(tree)}


@pytest.mark.parametrize("name", MODULES)
def test_every_private_helper_is_used(name):
    # a private helper that nothing in the package calls, other than itself,
    # is a dead copy: delete it rather than keep it for the tests
    unused = [helper for helper, first, last in _private_defs(SOURCES[name])
              if not any(ref == helper
                         and not (mod == name and first <= line <= last)
                         for mod, ref, line in REFERENCES)]
    assert unused == []


@pytest.mark.parametrize("name", MODULES)
def test_no_function_takes_a_weight_and_its_basis(name):
    # a basis is derived from its weight (Basis.of_weight), so a function
    # given both could be given two that disagree
    both = [node.name for node in ast.walk(SOURCES[name])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and {"nu", "basis"} <= {a.arg for a in
                                    node.args.posonlyargs + node.args.args
                                    + node.args.kwonlyargs}]
    assert both == []


def _ring_internals(tree):
    """(what, line) of every read of a ``_t`` attribute, every private name
    imported from ``ring`` and every private attribute of ``ring``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "_t"
                or (node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "ring")):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "ring"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield alias.name, node.lineno


@pytest.mark.parametrize("name", [m for m in MODULES if m != "ring"])
def test_only_ring_reads_packed_terms(name):
    # a Poly's packed-term dict and ring's private helpers are ring's own:
    # every other module goes through Poly's methods, so the packing can
    # change in one place
    assert list(_ring_internals(SOURCES[name])) == []


def _field_shifts(tree):
    """The name of the innermost function around each augmented
    ``>>= _FIELD``, None for one outside every function."""
    funcs = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.RShift)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_FIELD"):
            inner = min((f for f in funcs
                         if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno, default=None)
            yield getattr(inner, "name", None)


def test_only_the_field_reader_walks_packed_keys():
    # the rule for reading a packed key's fields (shift past the degree,
    # then one 16-bit field per registered variable until the key is
    # empty) is written once, in ring._fields; every other reader of a
    # key's variables calls it
    assert list(_field_shifts(SOURCES["ring"])) == ["_fields"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "ring"])
def test_only_ring_reads_an_assignment(name):
    # a value at a point is read through one ring.Point, which checks the
    # assignment once and caches what it reads; a module that checks or
    # reads an assignment itself is a second copy of that rule
    reads = [(ref, line) for mod, ref, line in REFERENCES
             if mod == name and ref in ("check_assignment", "evaluate_terms",
                                        "param_value")]
    assert reads == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "perms"])
def test_only_perms_walks_the_reversal_sequence(name):
    # the block-reversal sequence is walked in one place,
    # perms.reversal_record; every other module reads the record
    walks = [(ref, line) for mod, ref, line in REFERENCES
             if mod == name and ref in ("young_data", "block_reversal")]
    assert sorted(walks) == []


def test_the_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps each method as found in its own class's
    # __dict__ and each function by its module attribute, so a method moved
    # to a base class, or a function renamed or deleted, makes install()
    # raise
    src = pathlib.Path(quongram.__path__[0]).parent
    perfbench = src.parent / "perfbench"
    code = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(perfbench)!r}]; "
            "import tracer; tracer.Tracer().install(); print('installed')")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert (run.returncode, run.stdout.strip()) == (0, "installed"), \
        run.stderr


TEST_SOURCES = {path.name: ast.parse(path.read_text())
                for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))}


@pytest.mark.parametrize("name", sorted(TEST_SOURCES))
def test_every_test_import_is_read(name):
    # a test module's imports say what it exercises; one it never reads
    # claims coverage that is not there
    tree = TEST_SOURCES[name]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert [x for x in bound if x not in read] == []
