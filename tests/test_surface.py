"""Every function in src/divvar is reached by some `divvar` run.

Code that only tests call belongs under tests/, so this runs the CLI
under `sys.setprofile` on one small run of each subcommand (both cache
paths, a config file, --out and a refused flag included) and requires
each function and non-dunder method defined in a divvar module to have
been called.
"""

import inspect
import sys

from divvar import cli, constants, gammapoly, rmt, sieve, variance, weights

MODULES = (cli, constants, gammapoly, rmt, sieve, variance, weights)

# Public API the CLI does not print: the exact sharp-cutoff variance v_k(q;X)
ALLOWED = {"divvar.variance.sharp_variance"}


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
    config = tmp_path / "variance.cfg"
    config.write_text("k = 2\nq = 12\n")
    cache, out = tmp_path / "cache", tmp_path / "out.csv"
    variance_run = ["variance", "--config", str(config), "--c-grid", "0.5,1.5",
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
