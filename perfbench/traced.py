"""Run one hopfgal CLI invocation with per-function spans.

Usage: PYTHONPATH=src python3 perfbench/traced.py SPANS.json <cli args...>

After `hopfgal.cli` is imported (its import time is recorded as
`cli.import_s`), each listed library function is replaced by a timing
wrapper in every hopfgal module namespace that binds it, so
`from .linalg import ring_det` in galois and comod is caught as well as the
definition in linalg.  Methods are replaced on their class.  Spans
aggregate into calls, total time (outermost calls only, so recursion is not
counted twice) and self time (total minus time in traced callees).  Each
thread keeps its own span stack and counters, so the CLI's thread pool
neither races on them nor attaches spans to the wrong parent; the
per-thread tables are merged and written to SPANS.json when the process
exits.  The library's source is not modified.
"""

from __future__ import annotations

import json
import sys
import threading
import time

# (module, attribute path, span name).  Spans record calls, total and self time.
TIMED = (
    ("document", "load_document", "document.load_document"),
    ("document", "validate_raw", "document.validate_raw"),
    ("document", "resolve", "document.resolve"),
    ("document", "document_of", "document.document_of"),
    ("hopf", "solve_antipode", "hopf.solve_antipode"),
    ("hopf", "verify_hopf", "hopf.verify_hopf"),
    ("linalg", "field_solve", "linalg.field_solve"),
    ("linalg", "field_det", "linalg.field_det"),
    ("linalg", "ring_det", "linalg.ring_det"),
    ("linalg", "ring_solve", "linalg.ring_solve"),
    ("linalg", "berkowitz_det", "linalg.berkowitz_det"),
    ("rings", "BaseRing.try_inverse", "rings.try_inverse"),
    ("rings", "BaseMorphism.__init__", "rings.BaseMorphism.init"),
    ("rings", "BaseMorphism.apply", "rings.BaseMorphism.apply"),
    ("galois", "canonical_matrix", "galois.canonical_matrix"),
    ("galois", "is_galois", "galois.is_galois"),
    ("galois", "verify_bundle", "galois.verify_bundle"),
    ("comod", "verify_comodule_algebra", "comod.verify_comodule_algebra"),
    ("comod", "check_iso", "comod.check_iso"),
    ("comod", "convolution_invert", "comod.convolution_invert"),
    ("comod", "push_forward", "comod.push_forward"),
    ("cleft", "check_cleaving", "cleft.check_cleaving"),
    ("homotopy", "verify_witness", "homotopy.verify_witness"),
    ("homotopy", "verify_step", "homotopy.verify_step"),
    ("bundles", "abg_triviality_criterion", "bundles.abg_triviality_criterion"),
    ("bundles", "search_trivialization", "bundles.search_trivialization"),
)

# Counted, not timed: a timing wrapper would cost more than the operation.
COUNTED = (
    ("rings", "BaseElement.__mul__", "rings.element_mul"),
    ("fields", "RationalField.mul", "fields.mul"),
    ("fields", "PrimeField.mul", "fields.mul"),
    ("fields", "SimpleExtension.mul", "fields.mul"),
    ("fields", "RationalField.add", "fields.add"),
    ("fields", "PrimeField.add", "fields.add"),
    ("fields", "SimpleExtension.add", "fields.add"),
    ("fields", "RationalField.inv", "fields.inv"),
    ("fields", "PrimeField.inv", "fields.inv"),
    ("fields", "SimpleExtension.inv", "fields.inv"),
)


class Tracer:
    """Per-thread span stacks and counters, merged on demand."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            # [open-span child-time stack, {name: [calls, total, self, hits]},
            #  {name: open depth}]
            st = self._local.st = ([], {}, {})
            with self._lock:
                self._tables.append(st[1])
        return st

    def timed(self, name, fn, hit=None):
        def wrapper(*args, **kwargs):
            stack, table, depth = self._state()
            outer = depth.get(name, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                depth[name] -= 1
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0, 0]
                row[0] += 1
                if outer:
                    row[1] += dt
                row[2] += dt - child
                if hit is not None and hit(result):
                    row[3] += 1
                if stack:
                    stack[-1] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            table = self._state()[1]
            row = table.get(name)
            if row is None:
                row = table[name] = [0, 0.0, 0.0, 0]
            row[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def merged(self) -> dict:
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in table.items():
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for k in range(4):
                    acc[k] += row[k]
        return {name: {"calls": r[0], "total_s": r[1], "self_s": r[2], "hits": r[3]}
                for name, r in out.items()}


def install(tracer: Tracer) -> None:
    """Replace every binding of each listed function in the hopfgal modules."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "hopfgal" or name.startswith("hopfgal."))]
    for kind, table in (("timed", TIMED), ("counted", COUNTED)):
        for mod, path, name in table:
            owner = sys.modules[f"hopfgal.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if kind == "counted":
                wrapped = tracer.counted(name, original)
            elif name == "rings.try_inverse":
                wrapped = tracer.timed(name, original, hit=lambda r: r is not None)
            else:
                wrapped = tracer.timed(name, original)
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import hopfgal.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return hopfgal.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.merged()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
