"""Every function and constant in src/divvar is used by the package.

Code that only tests call belongs under tests/, so this runs the CLI
under `sys.setprofile` on one small run of each subcommand (both cache
paths, --out and a refused flag included) and requires
each function and non-dunder method defined in a divvar module to have
been called.  A module-level constant (NAME or _NAME) must be read
somewhere in src/divvar.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import sys

import divvar
from divvar import cli

MODULES = tuple(importlib.import_module(f"divvar.{info.name}")
                for info in pkgutil.iter_modules(divvar.__path__))

# Functions the CLI may leave uncalled
ALLOWED = set()


def _defined_functions():
    """{qualified name: code object} of the functions and methods of MODULES."""
    out = {}

    def add(name, obj, module):
        fn = inspect.unwrap(obj)  # functools.cache wrappers
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            out[f"{module.__name__}.{name}"] = fn.__code__

    for module in MODULES:
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    add(f"{name}.{attr}", member, module)
            else:
                add(name, obj, module)
    return out


def test_every_function_is_reached_by_the_cli(tmp_path):
    defined = _defined_functions()
    assert "divvar.constants.a_k_const" in defined  # unwrapped, not skipped
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()  # a cache hit would hide the call
    cache, out = tmp_path / "cache", tmp_path / "out.csv"
    variance_run = ["variance", "--k", "2", "--q", "12", "--c-grid", "0.5,1.5",
                    "--h", "3", "--cache-dir", str(cache), "--out", str(out)]
    runs = [
        ["gamma", "--k", "2", "--samples", "10000"],
        ["constants", "--k", "2", "--q", "12", "--prime-limit", "1000"],
        variance_run,  # cold: sieves and writes the cache
        variance_run,  # warm: reads it back
        ["rmt", "--k", "2", "--n", "4"],
        ["selftest"],
        ["gamma", "--format", "xml"],  # refused: exit 1
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * (len(runs) - 1) + [1]
    unreached = sorted(name for name, code in defined.items()
                       if code not in called and name not in ALLOWED)
    assert unreached == [], f"only tests call {unreached}; move them to tests/"


def test_every_module_constant_is_read():
    trees = {m.__name__: ast.parse(inspect.getsource(m)) for m in MODULES}
    defined = {
        f"{module}.{target.id}"
        for module, tree in trees.items()
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name)
        and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    }
    assert "divvar.variance._BATCH" in defined
    # read by name (in its module, or where it is imported) or as module.NAME
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(qualified for qualified in defined
                    if qualified.rpartition(".")[2] not in read)
    assert unread == [], f"nothing in src/divvar reads {unread}"
