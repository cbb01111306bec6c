"""Run one ``schemelab`` CLI command with a span around every public call.

Usage: python3 traced_cli.py SPANS_JSON CMD_ID CLI_ARGS...

Each public function of the traced modules is replaced, on its module, by a
``functools.wraps`` wrapper that records a span.  Calls within a module and
calls through another module's attribute (``cc_core.validate_config``) both
look the name up on the module, so they reach the wrapper.  Names imported
with ``from ... import`` (``parallel.run_chunked``) are not traced; their time
stays in the caller's self time.  The spans are written in a ``finally``
block, so a command that raises still leaves its trace.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

from spans import LAYERS

# Work counts recorded at a boundary: f(args, kwargs, result) -> {what: count}.
COUNTERS = {
    "cli.load_scheme": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "cc_core.validate_config": lambda a, k, r: {"cells": len(a[0]) ** 2, "rank": r.rank},
    "extension.coherent_closure": lambda a, k, r: {"rank": r.rank},
    "extension.explicit_extension": lambda a, k, r: {"rank": r.config.rank},
    "spectral.decompose": lambda a, k, r: {"blocks": len(r.blocks)},
    "permgroup.search_color_isomorphisms": lambda a, k, r: {"found": len(r)},
    "analysis.algebraic_isomorphisms": lambda a, k, r: {"found": len(r)},
}


def _traced(name, fn, spans, stack):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if counter is not None:
            span[4] = counter(args, kwargs, result)
        return result
    return wrapper


def install(spans, stack):
    """Wrap the public functions defined in each traced module."""
    for short in LAYERS:
        module = importlib.import_module("schemelab." + short)
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                setattr(module, attr, _traced(f"{short}.{attr}", value, spans, stack))


def main(argv):
    out_path, cmd_id, cli_args = argv[1], argv[2], argv[3:]
    spans, stack = [], []
    install(spans, stack)
    from schemelab import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"cmd": cmd_id, "spans": spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
