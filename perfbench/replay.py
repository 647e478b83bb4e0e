"""In-process replay of a workload's CLI commands, optionally traced.

Usage: python3 replay.py SPEC.json RESULT.json

SPEC holds {"src": path holding the qstoch package, "trace": bool,
"commands": [[cli args...], ...]}.  Each command runs through
qstoch.cli.main in this one interpreter with QSTOCH_THREADS=1, so every call
stays in-process.  With tracing on, the public functions listed in LAYERS
are wrapped wherever a qstoch module holds a reference to them (the names
cli imports, and module attributes such as ``qmath.von_neumann_entropy``
that tomo looks up at call time), so spans nest and each layer's self time
is its span time minus its child spans.  No file under the package changes.

RESULT receives the exit codes, the time spent in cli.main, and with
tracing on a per-module and per-function summary of the spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

# the layer boundaries: per-step helpers are deliberately absent, since a
# span per trace step would cost more than the step itself
LAYERS = {
    "circuit": ("run_trace", "calibrate_noise"),
    "tomo": ("simulate_counts", "entropy_with_error", "reconstruct_rho",
             "ensemble_density"),
    "stats": ("block_law_check",),
    "qmodel": ("quantum_causal_states", "steady_state_rho", "quantum_complexity",
               "construct_cu"),
    "process": ("stationary_distribution", "classical_complexity",
                "block_distribution"),
    "qmath": ("von_neumann_entropy", "trace_distance", "fidelity", "eig_hermitian",
              "shannon_entropy", "mixture"),
}


def array_bytes(obj, depth: int = 3) -> int:
    """Bytes of the numpy arrays held by a (nested) dataclass result."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(obj, "dtype"):
        return nbytes
    if depth and dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), depth - 1)
                   for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Span recorder: one [module, name, parent, start, end, attrs] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, module: str, name: str, fn, args, kwargs, describe=None):
        """Run fn(*args, **kwargs) inside a span; describe(args, kwargs, result)
        may return attributes to store with it."""
        idx = len(self.spans)
        record = [module, name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            record[3] = start
            self._stack.pop()
        if describe is not None:
            record[5] = describe(args, kwargs, result)
        return result

    def wrap(self, module: str, name: str, fn):
        attrs = _ATTRS.get((module, name))
        describe = None
        if attrs is not None:
            signature = inspect.signature(fn)

            def describe(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return attrs(bound.arguments, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(module, name, fn, args, kwargs, describe)
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function wherever a loaded qstoch module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qstoch" or key.startswith("qstoch.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"qstoch.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def summary(self) -> dict:
        n = len(self.spans)
        child_time = [0.0] * n
        for module, name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        modules: dict[str, float] = {}
        functions: dict[str, dict] = {}
        root_s = 0.0
        trace_modes: dict[str, dict] = {}
        trace_bytes = 0
        rounds = 0
        for i, (module, name, parent, start, end, attrs) in enumerate(self.spans):
            duration = end - start
            self_s = duration - child_time[i]
            modules[module] = modules.get(module, 0.0) + self_s
            entry = functions.setdefault(f"{module}.{name}",
                                         {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_s
            if parent < 0:
                root_s += duration
            if attrs and "mode" in attrs:
                mode = trace_modes.setdefault(attrs["mode"], {"steps": 0, "s": 0.0})
                mode["steps"] += attrs["steps"]
                mode["s"] += duration
                trace_bytes += attrs["bytes"]
            if attrs and "rounds" in attrs:
                rounds += attrs["rounds"]
        return {"spans": n, "root_s": root_s, "modules_self_s": modules,
                "functions": functions, "run_trace": trace_modes,
                "run_trace_bytes": trace_bytes, "bootstrap_rounds": rounds}


# span attributes: a trace's mode, length and returned bytes, and the rounds
# of each bootstrap, so per-step and per-round costs are measured in place
_ATTRS = {
    ("circuit", "run_trace"): lambda a, result: {
        "mode": a.get("mode"), "steps": int(a.get("n", 0)), "bytes": array_bytes(result)},
    ("tomo", "entropy_with_error"): lambda a, result: {
        "rounds": int(a.get("bootstrap_rounds", 0))},
}


def replay(src: Path, trace: bool, commands: list[list[str]]) -> dict:
    sys.path.insert(0, str(src))
    os.environ["QSTOCH_THREADS"] = "1"
    import qstoch.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"qstoch imported from {cli.__file__}, not from {src}")
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    codes, walls = [], []
    for argv in commands:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", "main", cli.main, (argv,), {})
        except SystemExit as exc:          # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        walls.append(time.perf_counter() - start)
        codes.append(code)
    result = {"codes": codes, "walls": walls, "wall_s": sum(walls)}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: replay.py SPEC.json RESULT.json", file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    result = replay(Path(spec["src"]), bool(spec["trace"]), spec["commands"])
    Path(argv[1]).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
