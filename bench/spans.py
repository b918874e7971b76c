"""Layer spans recorded from outside the package.

``Tracer.install()`` rebinds every public function of the nine layer
modules, in every ``hderlab`` module namespace that holds it, to a wrapper
that records a span: name, start, end, parent span and op id.  It also
rebinds ``Matrix.__mul__`` on the class.  Hot scalar helpers stay unwrapped,
so their time counts as the caller's self time.  Spans stay in memory;
``write`` saves them at the end of a run.

``rref`` inputs and outputs and ``differential_matrix`` outputs are kept
until the op ends, then reduced to sizes (cells, nonzeros, entry bits,
repeats) outside the timed spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "serialize", "algebras", "hder", "cochain", "exactlin",
          "deform", "extensions", "freecons")

# Called per scalar or per vector entry; wrapping them would cost more than
# the work they do.
HOT = {"exactlin": {"rat", "rat_str", "vec_add", "vec_sub", "vec_scale",
                    "vec_is_zero", "basis_vector"},
       "serialize": {"parse_rational"}}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or name in HOT.get(module.__name__.split(".")[-1], ()):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield name, obj
        elif hasattr(obj, "cache_info"):  # functools.lru_cache wrapper
            yield name, obj


def _span_name(layer: str, func: str) -> str:
    """Serialization functions are grouped as ``serialize.parse`` / ``serialize.emit``."""
    if layer == "serialize":
        return "serialize.parse" if func.startswith("parse") else "serialize.emit"
    return f"{layer}.{func}"


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent id or -1, op id)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.op_id = -1
        self._rref_calls: list[tuple] = []   # (input, output) in the current op
        self._dm_outputs: list = []          # differential_matrix results in the current op
        self.op_stats: dict[int, dict] = {}

    def _wrap(self, name: str, fn, record=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op_id))
            if record is not None:
                record(args, out)
            return out
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"hderlab.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for func, obj in _public_functions(module):
                record = None
                if layer == "exactlin" and func == "rref":
                    record = lambda args, out: self._rref_calls.append((args[0], out))
                elif layer == "cochain" and func == "differential_matrix":
                    record = lambda args, out: self._dm_outputs.append(out)
                replacements[id(obj)] = (obj, self._wrap(_span_name(layer, func), obj, record))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hderlab" and not mod_name.startswith("hderlab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        matrix = modules["exactlin"].Matrix
        matrix.__mul__ = self._wrap("exactlin.matmul", matrix.__mul__)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_op(self, cache_hits: int, cache_misses: int) -> None:
        """Reduce the op's kept matrices to counts; runs outside every span."""
        seen = set()
        repeats = cells = nnz_in = bits = 0
        for m, (red, _pivots) in self._rref_calls:
            if m in seen:
                repeats += 1
            seen.add(m)
            cells += m.rows * m.cols
            nnz_in += sum(1 for x in m.entries if x)
            for x in red.entries:
                if x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        dm_nnz = sum(sum(1 for x in m.entries if x)
                     for m in {id(m): m for m in self._dm_outputs}.values())
        self.op_stats[self.op_id] = {
            "rref_calls": len(self._rref_calls), "rref_repeats": repeats,
            "rref_cells": cells, "rref_nnz_in": nnz_in, "rref_max_entry_bits": bits,
            "dm_hits": cache_hits, "dm_misses": cache_misses, "dm_nnz": dm_nnz,
        }
        self._rref_calls = []
        self._dm_outputs = []
        self.op_id = -1

    def function_table(self) -> dict[str, dict]:
        """Calls and self time per span name."""
        covered = defaultdict(float)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, name, start, end, _parent, _op in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - covered[sid]
        return dict(table)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
