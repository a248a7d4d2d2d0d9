"""Run one `adiapack` CLI command with spans around each layer's public callables.

    python3 perfbench/tracer.py <spans.json> <adiapack arguments...>

The wrappers are installed from outside the program: every `adiapack` module
that holds a binding of a traced function gets the wrapper in its place, and
traced methods are replaced on their class.  Spans (name, parent, start, end,
work count) are kept in memory and written to <spans.json> when the command
ends, whatever its exit code.  A callable that no longer exists is listed
under "missing" and reads as zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time


def _arg(bound, name):
    return bound.arguments.get(name)


def _trajectory_steps(bound):
    return round(_arg(bound, "T") / _arg(bound, "dt"))


def _frame_node_steps(bound):
    T = _arg(bound, "T")
    if T is None:
        T = float(_arg(bound, "traj").times[-1])
    return _arg(bound, "z_grid").n * round(T / _arg(bound, "dt"))


def _file_bytes(bound):
    return os.path.getsize(_arg(bound, "path"))


# (module, qualified name, work-count name, count from the bound arguments,
#  whether the count reads the call's effect and so runs after it)
TARGETS = [
    ("config", "load_config", None, None, False),
    ("potentials", "decompose", "points",
     lambda b: _arg(b, "grid").n, False),
    ("classical", "integrate_trajectory", "steps", _trajectory_steps, False),
    ("eigenframe", "transport_frame", "node_steps", _frame_node_steps, False),
    ("eigenframe", "frame_at", None, None, False),
    ("envelope", "EnvelopeStepper.advance", None, None, False),
    ("nls", "NLSPropagator.step", "point_steps",
     lambda b: _arg(b, "values").shape[0], False),
    ("nls", "mode_populations", None, None, False),
    ("corrections", "ScalarPropagator.step", "point_steps",
     lambda b: _arg(b, "values").shape[0], False),
    ("experiments", "_phi_values", "points",
     lambda b: _arg(b, "lab_grid").n, False),
    ("experiments", "run_single_packet", None, None, False),
    ("experiments", "superposition_experiment", None, None, False),
    ("grids", "sigma_norm", None, None, False),
    ("grids", "l2_norm", None, None, False),
    ("cli", "write_csv", "bytes", _file_bytes, True),
    ("cli", "write_json", "bytes", _file_bytes, True),
]


class Tracer:
    """In-memory span store with a parent stack (the traced runs use one thread)."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.missing = []

    def wrap(self, name, fn, count, count_after):
        index = len(self.names)
        self.names.append(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            work = 0 if count is None or count_after else count(bound)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if count_after:
                    work = count(bound)
                spans[sid] = (index, parent, start, end, work)

        return traced

    def install(self):
        import adiapack.cli  # noqa: F401  (the CLI is not imported by the package)

        modules = [m for n, m in sys.modules.items()
                   if n == "adiapack" or n.startswith("adiapack.")]
        for module_name, qualname, _, count, count_after in TARGETS:
            name = f"{module_name}.{qualname}"
            try:
                owner = importlib.import_module(f"adiapack.{module_name}")
            except ImportError:
                owner = None
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, count, count_after)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "spans": self.spans}, fh)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from adiapack.cli import main as cli_main
    code = 1
    try:
        code = cli_main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
