"""Outside-in layer tracer: wraps the library's public functions in place.

The library imports names with ``from .x import f``, so a function is bound
in every module that uses it, sometimes under another name (``sqrt`` is
``field_sqrt`` in elliptic_curve).  `Tracer.install` replaces every binding
in every loaded ``isogenion.*`` module by a wrapper, and `Tracer.uninstall`
puts the original objects back.

Spanned functions record (name, start, end, parent span, query id); a
span's self time is its duration minus that of its direct child spans.
Field arithmetic and `point_add` run up to millions of times per query, so
they, `base_change` and `Curve.random_point` only count calls.
"""

import importlib
import sys
import time
from collections import defaultdict

SPANNED = {
    "finite_field": ("sqrt", "field_create"),
    "elliptic_curve": (
        "scalar_mul", "count_points", "twist_classes", "curve_class",
        "sylow_basis", "torsion_basis", "two_dim_dlog", "divide_point",
    ),
    "polyring": ("roots", "subfield_embedding"),
    "isogeny": (
        "velu", "stable_cyclic_subgroups", "cyclic_isogenies", "compose",
        "dual", "modular_polynomial",
    ),
    "endo_ring": ("compute_endo_conductor", "frobenius_matrix", "annihilator_index"),
    "hom_index_kernel": (
        "hom_index", "stable_cyclic_kernels", "kernel_of_ideal", "annihilator_ideal",
    ),
    "quadratic_order": ("class_group",),
    "isogeny_graph": ("build_graph", "verify_volcano", "count_components"),
    "minimal_degree": ("md_between", "rB", "md_supersingular_bounds"),
}
COUNTED = {"elliptic_curve": ("point_add", "base_change")}
# Methods are bound once, on their class.
COUNTED_METHODS = (
    ("finite_field", "Field", "_mul", "finite_field.mul"),
    ("finite_field", "Field", "_inv", "finite_field.inv"),
    ("finite_field", "Field", "frobenius", "finite_field.frobenius"),
    ("elliptic_curve", "Curve", "random_point", "elliptic_curve.random_point"),
)


def library_modules():
    """Every loaded isogenion module, the package itself included."""
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "isogenion" or name.startswith("isogenion."))
    ]


def _module(name):
    return importlib.import_module(f"isogenion.{name}")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index, query id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.query_id = "setup"
        self._stack = []  # [span index, seconds spent in direct child spans]
        self._saved = []  # (namespace, attribute, original object)

    # -- installing ----------------------------------------------------------

    def install(self):
        targets = {}
        for mod, names in SPANNED.items():
            for name in names:
                fn = getattr(_module(mod), name)
                targets[id(fn)] = (fn, self._span_wrapper(f"{mod}.{name}", fn))
        for mod, names in COUNTED.items():
            for name in names:
                fn = getattr(_module(mod), name)
                targets[id(fn)] = (fn, self._count_wrapper(f"{mod}.{name}", fn))
        for module in library_modules():
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, cls_name, meth, name in COUNTED_METHODS:
            cls = getattr(_module(mod), cls_name)
            fn = cls.__dict__[meth]
            wrapper = self._mul_wrapper(fn) if meth == "_mul" else self._count_wrapper(name, fn)
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _count_wrapper(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _mul_wrapper(self, fn):
        calls, extra = self.calls, self.extra
        calls["finite_field.mul"] = 0

        def counted(field, a, b):
            calls["finite_field.mul"] += 1
            if field.r > 1:
                extra["finite_field.mul.ext_calls"] += 1
            return fn(field, a, b)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, name, fn):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        short = name.split(".")[1]
        on_enter = getattr(self, "_enter_" + short, None)
        on_exit = getattr(self, "_exit_" + short, None)
        clock = time.perf_counter
        tracer = self
        calls[name], self_s[name] = 0, 0.0

        def spanned(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.query_id]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            calls[name] += 1
            if on_enter is not None:
                on_enter(*args)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                record[1], record[2] = start, end
                self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if on_exit is not None:
                    on_exit(args, result, error, end - start)

        spanned.__wrapped__ = fn
        return spanned

    # -- per-function extras -------------------------------------------------

    def _enter_count_points(self, curve):
        # a sweep is a call that finds no cached count on the curve
        if curve._order is None:
            self.extra["elliptic_curve.count_points.sweeps"] += 1
            self.extra["elliptic_curve.count_points.swept_elems"] += curve.field.order

    def _exit_torsion_basis(self, args, result, error, duration):
        if result is not None:
            degree = result[2].r // args[0].field.r
            key = "elliptic_curve.torsion_basis.max_ext_degree"
            self.extra[key] = max(self.extra[key], degree)
        elif isinstance(error, _module("errors").BoundExceeded):
            self.extra["elliptic_curve.torsion_basis.refused"] += 1
            self.extra["elliptic_curve.torsion_basis.refused_s"] += duration

    def _exit_stable_cyclic_kernels(self, args, result, error, duration):
        if isinstance(error, _module("errors").BoundExceeded):
            self.extra["hom_index_kernel.stable_cyclic_kernels.refused"] += 1

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values, named as in BENCHMARK.json."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        for name in (
            "finite_field.mul.ext_calls",
            "elliptic_curve.count_points.sweeps",
            "elliptic_curve.count_points.swept_elems",
            "elliptic_curve.torsion_basis.refused",
            "elliptic_curve.torsion_basis.refused_s",
            "elliptic_curve.torsion_basis.max_ext_degree",
            "hom_index_kernel.stable_cyclic_kernels.refused",
        ):
            out[name] = self.extra[name]
        sylow = self.calls["elliptic_curve.sylow_basis"]
        draws = self.calls["elliptic_curve.random_point"]
        out["elliptic_curve.sylow_basis.draws_per_call"] = draws / sylow if sylow else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{qid}\n")
