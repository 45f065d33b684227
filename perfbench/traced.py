"""Traced CLI run: spans around the public functions of every nmavc module.

Run as a script, it installs the wrappers and runs one CLI invocation in
this process:

    PYTHONPATH=src python3 perfbench/traced.py SPANS_FILE RUN_ID -- <nmavc args>

Each wrapped call becomes a span (run id, span id, parent id, name,
start ns, end ns, attributes), kept in memory and written as one
tab-separated line when the CLI returns.  The root span `cli` covers
the whole command.  `aggregate` turns span files into call counts and
self times (span duration minus its direct child spans).
"""

from __future__ import annotations

import inspect
import sys
import time
from pathlib import Path

#: (layer, module, attribute path) of every function the trace wraps.
TARGETS = (
    ("verifier", "nmavc.verifier", "certify_family"),
    ("verifier", "nmavc.verifier", "tamper_map"),
    ("verifier", "nmavc.verifier", "optimal_simulator"),
    ("simplex", "nmavc.simplex", "solve_min"),
    ("tampering", "nmavc.tampering", "fit_affine"),
    ("channels", "nmavc.channels", "StateSequence.output_distribution"),
    ("channels", "nmavc.channels", "StateSequence.mixture_weights"),
    ("gf2", "nmavc.gf2", "ecc_decode"),
    ("gf2", "nmavc.gf2", "select_reconstruction"),
    ("gf2", "nmavc.gf2", "delta_exact"),
    ("composed", "nmavc.composed", "induced_tamper"),
    ("composed", "nmavc.composed", "composed_tamper_distribution"),
    ("composed", "nmavc.composed", "recovery_probability"),
    ("composed", "nmavc.composed", "verify_composed"),
    ("distributions", "nmavc.distributions", "statistical_distance"),
    ("distributions", "nmavc.distributions", "mix"),
)
SPAN_NAMES = [f"{layer}.{path}" for layer, _, path in TARGETS]
ROOT = "cli"
LP = "simplex.solve_min"


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        #: Open span ids; the program runs single-threaded (NMAVC_THREADS unset).
        self._stack = [0]

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs))

    def wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.call(name, next, (iterator,), {})
                    except StopIteration:
                        return
                    yield item
            return traced_generator
        if name == LP:
            signature = inspect.signature(fn)

            def traced_lp(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                lp = bound.arguments
                shape = (len(lp["a_ub"]) + len(lp["a_eq"]), len(lp["c"]))
                return tracer.call(name, fn, args, kwargs, shape)
            return traced_lp

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    def install(self) -> None:
        """Replace each target at every place a module binds it."""
        import nmavc.cli  # noqa: F401  (loads every module that binds a target)

        modules = [m for key, m in sys.modules.items()
                   if key == "nmavc" or key.startswith("nmavc.")]
        for layer, module, path in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                print(f"trace: {module}.{path} not found; not traced", file=sys.stderr)
                continue
            wrapper = self.wrap(f"{layer}.{path}", original)
            setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, attrs in self.spans:
                extra = "" if attrs is None else ",".join(map(str, attrs))
                handle.write(f"{self.run_id}\t{sid}\t{parent}\t{name}\t{start}\t{end}\t{extra}\n")


def aggregate(paths) -> dict:
    """Per span name: calls, self_s, and for the LP the summed rows/cols."""
    stats: dict = {}
    for path in paths:
        duration, child_time, names, shapes = {}, {}, {}, {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                _, sid, parent, name, start, end, extra = line.rstrip("\n").split("\t")
                duration[sid] = int(end) - int(start)
                child_time[parent] = child_time.get(parent, 0) + duration[sid]
                names[sid] = name
                if extra:
                    shapes[sid] = tuple(map(int, extra.split(",")))
        for sid, name in names.items():
            entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "rows": 0, "cols": 0})
            entry["calls"] += 1
            entry["self_s"] += (duration[sid] - child_time.get(sid, 0)) / 1e9
            if sid in shapes:
                entry["rows"] += shapes[sid][0]
                entry["cols"] += shapes[sid][1]
    return stats


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        print("usage: traced.py SPANS_FILE RUN_ID -- <nmavc args>", file=sys.stderr)
        return 2
    tracer = Tracer(run_id)
    tracer.install()
    import nmavc.cli

    def run_cli():
        try:
            nmavc.cli.main(args=cli_args, prog_name="nmavc")
        except SystemExit as exc:
            return exc.code
        return 0

    code = tracer.call(ROOT, run_cli, (), {})
    tracer.write(Path(spans_path))
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
