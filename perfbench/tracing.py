"""Spans around calls into divvar's public functions, and their self times.

The child process calls `Tracer.install()`, which replaces every module
attribute of the `divvar` package that refers to one of the functions in
`WRAPPED` with a wrapper that records a span: name, start, end, parent
span id and a few attributes read from the arguments or the result after
the call has ended.  `divvar.cli` calls the layers through module
attributes (`sieve.sieve_dk`, `variance.delta_k`, names imported with
`from ... import`), so the wrappers see those calls without any change to
the package.  Spans stay in memory and are returned with the result.

`self_times()` runs in the benchmark process: a span's self time is its
duration minus the durations of its direct children.  Calls are nested
and single-threaded, so the self times of all spans of one invocation add
up to the duration of its root span, `cli.main`.
"""

import functools
import inspect
import os
import sys
import time


def _path_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _delta_attrs(args, result):
    return {
        "Q": args["Q"], "X": args["X"],
        "psi": [args["psi"].support_lo, args["psi"].support_hi],
        "phi": [args["phi"].support_lo, args["phi"].support_hi],
        "residual": abs(result.delta - (result.a_term - result.b_term))
        / abs(result.delta),
    }


# (module, function, attributes recorded after the call)
WRAPPED = [
    ("cli", "main", None),
    ("cli", "emit_report", None),
    ("sieve", "sieve_dk", lambda a, r: {"x_max": r.x_max}),
    ("sieve", "dump_table", _path_bytes),
    ("sieve", "load_table", _path_bytes),
    ("variance", "delta_k", _delta_attrs),
    ("variance", "conjectured_values", None),
    ("variance", "short_interval_variance", None),
    ("constants", "a_k_const", lambda a, r: {"prime_limit": r.prime_limit}),
    ("constants", "a_tilde_k", lambda a, r: {"prime_limit": r.prime_limit}),
    ("gammapoly", "gamma_exact", None),
    ("gammapoly", "p_k", None),
    ("gammapoly", "gamma_mc_oracle", lambda a, r: {"samples": a["samples"]}),
    ("rmt", "secular_coefficients", None),
    ("rmt", "rmt_gamma_deviation", None),
    ("weights", "make_bump", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        """Wrap the functions in WRAPPED wherever a divvar module names them."""
        replace = {}
        for module, func, attrs in WRAPPED:
            fn = getattr(sys.modules[f"divvar.{module}"], func)
            replace[id(fn)] = (fn, self.wrap(f"{module}.{func}", fn, attrs))
        for name, mod in list(sys.modules.items()):
            if name != "divvar" and not name.startswith("divvar."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])


def self_times(spans):
    """(span, self seconds) for each span of one invocation, in call order."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child.get(s["id"], 0.0)) for s in spans]
