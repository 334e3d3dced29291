"""Per-layer tracing installed from outside quongram.

Class methods are wrapped on their class.  Module functions are replaced
in every quongram module that holds them, because ``determinant`` and
``inverse`` import ``build_generic`` by name and patching ``gram`` alone
would miss their calls.

For every wrapped name the tracer keeps
- ``calls``: how many times it was entered (exact, deterministic);
- ``self_s``: time inside it minus the time of wrapped calls it made;
- ``s``: time of its outermost calls, recursive re-entries not counted
  twice.
"""

import functools
import sys
import time
from collections import defaultdict

from quongram import applications, boxes, determinant, gram, inverse, ring

# (owner, attribute, span name); several attributes may share one name
METHODS = [
    (ring.Poly, "__mul__", "ring.Poly.mul"),
    (ring.Poly, "__add__", "ring.Poly.add"),
    (ring.Poly, "__sub__", "ring.Poly.add"),
    (ring.Poly, "evaluate", "ring.Poly.evaluate"),
    (ring.GaussRat, "__add__", "ring.GaussRat"),
    (ring.GaussRat, "__sub__", "ring.GaussRat"),
    (ring.GaussRat, "__mul__", "ring.GaussRat"),
    (ring.GaussRat, "__rmul__", "ring.GaussRat"),
    (ring.GaussRat, "__truediv__", "ring.GaussRat"),
    (boxes.BoxFraction, "__init__", "boxes.BoxFraction.init"),
    (boxes.BoxFraction, "__add__", "boxes.BoxFraction.add"),
    (boxes.BoxFraction, "__mul__", "boxes.BoxFraction.mul"),
    (boxes.BoxFraction, "__eq__", "boxes.BoxFraction.eq"),
    (gram.OpExpansion, "__mul__", "gram.OpExpansion.mul"),
    (gram.OpExpansion, "to_matrix", "gram.OpExpansion.to_matrix"),
    (gram.DiagOp, "shift", "gram.DiagOp.shift"),
    (gram.GramMatrix, "matmul", "gram.GramMatrix.matmul"),
]

FUNCTIONS = [
    (gram, "build_generic"),
    (determinant, "det_factor_chain"),
    (determinant, "det_single_cycle"),
    (determinant, "det_poly_bareiss"),
    (determinant, "peel_exponents"),
    (determinant, "det_univariate"),
    (determinant, "det_point"),
    (inverse, "lambda_scalar"),
    (inverse, "lambda_sigma"),
    (inverse, "inverse_matrix_at"),
    (inverse, "zagier_check"),
    (applications, "varchenko_matrix"),
]

INV_FULL_METHODS = ("fast", "long", "short", "chains", "zagier")
EXACT_DIV = "ring.Poly.exact_div"


def _function_name(module, attr):
    return f"{module.__name__.split('.')[-1]}.{attr}"


def _is_binomial(d):
    """Is the divisor a box binomial 1 - monomial?"""
    t = d.terms
    return len(t) == 2 and t.get((), 0) == 1 and -1 in t.values()


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.misses = 0
        self.binomial_calls = 0
        self._stack = []          # one [child time] cell per open span

    def _span(self, name, fn, args, kwargs):
        calls, depth, stack = self.calls, self.depth, self._stack
        calls[name] += 1
        depth[name] += 1
        cell = [0.0]
        stack.append(cell)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            self.self_s[name] += dur - cell[0]
            depth[name] -= 1
            if not depth[name]:
                self.outer_s[name] += dur

    def _wrap(self, name, fn):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return span(name, fn, args, kwargs)
        return wrapper

    def _wrap_exact_div(self, fn):
        span = self._span

        @functools.wraps(fn)
        def wrapper(p, d):
            if _is_binomial(d):
                self.binomial_calls += 1
            try:
                return span(EXACT_DIV, fn, (p, d), {})
            except ring.NotDivisible:
                self.misses += 1
                raise
        return wrapper

    def _wrap_inv_full(self, fn):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = kwargs.get("method", args[1] if len(args) > 1
                                else "fast")
            return span(f"inverse.inv_full.{method}", fn, args, kwargs)
        return wrapper

    def install(self):
        """Wrap every traced method and function.  Call once, right after
        import and before the workload builds its inputs."""
        for owner, attr, name in METHODS:
            setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
        ring.Poly.exact_div = self._wrap_exact_div(ring.Poly.exact_div)

        patches = {}              # id of the original -> its wrapper
        for module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            patches[id(fn)] = self._wrap(_function_name(module, attr), fn)
        patches[id(inverse.inv_full)] = self._wrap_inv_full(inverse.inv_full)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "quongram"
                                      or mod_name.startswith("quongram.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in patches:
                    setattr(module, attr, patches[id(value)])

    def metrics(self):
        """Every per-layer figure the tracer can give, by metric name."""
        names = {name for _, _, name in METHODS}
        names.update(_function_name(m, a) for m, a in FUNCTIONS)
        names.update(f"inverse.inv_full.{m}" for m in INV_FULL_METHODS)
        names.add(EXACT_DIV)
        out = {}
        for name in sorted(names):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.s"] = self.outer_s[name]
        out["ring.GaussRat.ops"] = self.calls["ring.GaussRat"]
        out[f"{EXACT_DIV}.misses"] = self.misses
        out[f"{EXACT_DIV}.binomial_calls"] = self.binomial_calls
        # 0 if the memos ever stop being module globals
        out["inverse.memo.lambda_entries"] = len(
            getattr(inverse, "_LAMBDA_MEMO", ()))
        out["inverse.memo.sigma_entries"] = len(
            getattr(inverse, "_SIGMA_MEMO", ()))
        return out
