"""Run one wlclosure CLI command with spans around the package's layers.

Usage (from the root of a source checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS_JSON <wlclosure cli arguments...>

Each layer's public function is replaced, at every module attribute through
which a caller looks it up, by one wrapper that records a span: layer name,
parent span index, start and end in ``perf_counter_ns``, and for a few layers
a small dict of attributes.  Spans stay in memory and are written to
SPANS_JSON when the command ends.  A lookup site that no longer exists is
skipped; a layer none of whose sites exist is listed as absent, so the
tracer keeps working when functions move or are deleted.

Nothing in the package is modified on disk; the tracer only rebinds names in
the imported modules of this one child process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# layer name -> the module attributes through which callers reach its function
LAYERS: dict[str, tuple[str, ...]] = {
    "io.parse": ("wlclosure.io.parse_graph_raw", "wlclosure.cli.parse_graph_raw"),
    "graph.validate": (
        "wlclosure.graph.validate",
        "wlclosure.io.validate",
        "wlclosure.coherence.validate",
    ),
    "io.digest": ("wlclosure.io.input_digest", "wlclosure.cli.input_digest"),
    "io.write": ("wlclosure.io.write_graph_file", "wlclosure.cli.write_graph_file"),
    "graph.rainbow_refine": (
        "wlclosure.graph.rainbow_refine",
        "wlclosure.probabilistic.rainbow_refine",
        "wlclosure.classical.rainbow_refine",
        "wlclosure.cli.rainbow_refine",
    ),
    "probabilistic.draw_substitution": ("wlclosure.probabilistic.draw_substitution",),
    "probabilistic.numeric_product": ("wlclosure.probabilistic.numeric_product",),
    "matmul.multiply": ("wlclosure.matmul.multiply", "wlclosure.probabilistic.multiply"),
    "graph.refine_by": (
        "wlclosure.graph.refine_by",
        "wlclosure.probabilistic.refine_by",
        "wlclosure.classical.refine_by",
    ),
    "classical.classical_step": (
        "wlclosure.classical.classical_step",
        "wlclosure.cli.classical_step",
    ),
    "graph.color_counts": ("wlclosure.graph.color_counts", "wlclosure.probabilistic.color_counts"),
    "graph.is_color_isomorphism": (
        "wlclosure.graph.is_color_isomorphism",
        "wlclosure.cli.is_color_isomorphism",
    ),
}
ROOT_LAYER = "cli.main"


def _multiply_attrs(args, result) -> dict:
    """Computed kernel counts of one product: 2*rows*inner*cols operations and
    the bytes of both operands and the result (no hardware counters)."""
    a, b = args[0], args[1]
    rows, inner = a.shape
    cols = b.shape[1]
    return {"flop": 2 * rows * inner * cols, "bytes": a.nbytes + b.nbytes + result.nbytes}


def _refine_attrs(args, result) -> dict:
    return {"refined": bool(getattr(result, "refined", False))}


ATTRS = {"matmul.multiply": _multiply_attrs, "graph.refine_by": _refine_attrs}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index or None, start_ns, end_ns, attrs]
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(layer)

        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else None, time.perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if attrs_of is not None:
                try:
                    span[4] = attrs_of(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature leaves the span without counts
            return result

        return traced

    def install(self, layers: dict[str, tuple[str, ...]]) -> tuple[list[str], list[str]]:
        """Rebind every existing site; return (absent layers, missing sites)."""
        absent, missing = [], []
        wrappers: dict = {}
        for layer, sites in layers.items():
            found = False
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    missing.append(site)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    missing.append(site)
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(layer, fn)
                setattr(module, attr, wrappers[fn])
                found = True
            if not found:
                absent.append(layer)
        return absent, missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import wlclosure.cli

    tracer = Tracer()
    absent, missing = tracer.install(LAYERS)
    run = tracer.wrap(ROOT_LAYER, wlclosure.cli.main)
    code = 1
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w", encoding="ascii") as handle:
            json.dump({"spans": tracer.spans, "absent": absent, "missing_sites": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
