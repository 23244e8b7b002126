"""Spans around the public functions of each cyclodet layer.

The tracer never edits the package: `install` rebinds each public name, in
every loaded `cyclodet` module namespace that holds it, to a wrapper that
records a span.  A span is (name, start_ns, end_ns, parent id, request id);
the request id is the prime being worked on.  Spans stay in memory and are
written out once, when the traced run ends.

Layers are the package modules.  `modarith` holds helpers only, so its time
lands in the self time of whichever layer called it.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> {public function: metric stem}.  Spans are named "<layer>.<stem>";
# the layer is the first dotted component, which is not always the module the
# function lives in (`report_to_dict` is the CLI's serialization step).
WRAPPED = {
    "cyclodet.matrices": {
        **{f: "matrices.build" for f in (
            "build_C", "build_D", "build_D_delta", "build_D_tilde",
            "build_E", "build_F", "build_S", "build_T", "build_S_delta",
        )},
        "matmul": "matrices.matmul",
    },
    "cyclodet.subfield": {
        "gauss_sum": "subfield.gauss_sum",
        "quad_decompose": "subfield.quad_decompose",
        "quartic_decompose": "subfield.quartic_decompose",
    },
    "cyclodet.classno": {
        "fundamental_unit": "classno.fundamental_unit",
        "verify_product_formula": "classno.product_formula",
        "squares_product": "classno.squares_product",
        "h_neg": "classno.h_neg",
    },
    "cyclodet.verify": {
        "legendre_sum_classes_hold": "verify.legendre_identity",
        "matrix_identity_direct": "verify.legendre_identity",
        "report_to_dict": "cli.serialize",
    },
    "cyclodet.cli": {
        "main": "cli.main",
        "reports_to_json": "cli.serialize",
    },
}
DET_BACKENDS = {
    "det_cyc_bareiss": "cyc_bareiss",
    "det_cyc_evalinterp": "cyc_evalinterp",
    "det_int_bareiss": "int_bareiss",
    "det_int_modular": "int_modular",
}
LAYERS = ("cycring", "matrices", "detkit", "subfield", "classno", "verify", "cli")
FAMILIES = {
    "cyc_bareiss": ("C", "D"),
    "cyc_evalinterp": ("C", "D", "Dtilde", "E", "DD", "F"),
    "int_bareiss": ("S", "T", "SD"),
    "int_modular": ("S", "T", "SD"),
}


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self) -> None:
        # spans[i] = [name, start_ns, end_ns, parent, request, outermost]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.request = None
        self.counters: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request, outer])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    # -- aggregation ---------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds per name, calls per name, self seconds per layer).

        Inclusive time counts only the outermost span of a name, so a name
        that re-enters itself is not counted twice.  Self time is a span's
        duration minus the time its child spans cover.
        """
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _req, outer in self.spans:
            calls[name] += 1
            if outer:
                incl[name] += (t1 - t0) / 1e9
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _parent, _req, _outer) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += (t1 - t0 - child_ns[i]) / 1e9
        return incl, calls, self_s

    def by_request(self, name: str) -> dict:
        """Seconds spent in outermost spans of `name`, per request id."""
        out: dict = defaultdict(float)
        for span_name, t0, t1, _parent, req, outer in self.spans:
            if span_name == name and outer:
                out[req] += (t1 - t0) / 1e9
        return dict(out)

    def write(self, path: str) -> None:
        """One JSON array per line: [id, parent, name, request, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "request",
                                            "start_ns", "end_ns"]}) + "\n")
            for i, (name, t0, t1, parent, req, _outer) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, req, t0, t1]) + "\n")


def _rebind(original, replacement) -> None:
    """Point every cyclodet module attribute that is `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == "cyclodet" or modname.startswith("cyclodet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; the package must be imported."""
    from cyclodet import detkit, verify
    from cyclodet.cycring import CycElt

    for modname, names in WRAPPED.items():
        module = sys.modules[modname]
        for fname, span in names.items():
            _rebind(getattr(module, fname), tracer.wrap(span, getattr(module, fname)))

    for fname, backend in DET_BACKENDS.items():
        _rebind(getattr(detkit, fname), _det_wrapper(tracer, backend, getattr(detkit, fname)))

    run_prime = verify.run_prime

    def traced_run_prime(p, *args, **kwargs):
        outer_request, tracer.request = tracer.request, p
        sid = tracer.open("verify.run_prime")
        try:
            report = run_prime(p, *args, **kwargs)
        finally:
            tracer.close(sid)
            tracer.request = outer_request
        for check in report.checks.values():
            tracer.counters[f"verify.checks_{check.status}"] += 1
        return report

    _rebind(run_prime, traced_run_prime)

    # Only element x element products are spans; scalar products pass through.
    for attr in ("__mul__", "__rmul__"):
        method = getattr(CycElt, attr)
        setattr(CycElt, attr, _mul_wrapper(tracer, method, CycElt))


def _mul_wrapper(tracer: Tracer, method, cls):
    def traced_mul(self, other):
        if not isinstance(other, cls):
            return method(self, other)
        sid = tracer.open("cycring.mul")
        try:
            return method(self, other)
        finally:
            tracer.close(sid)

    return traced_mul


def _det_wrapper(tracer: Tracer, backend: str, fn):
    def traced_det(m, stats=None):
        own = {} if stats is None else stats
        sid = tracer.open(f"detkit.{backend}.{m.meta.family}")
        try:
            value = fn(m, own)
        finally:
            tracer.close(sid)
        moduli = len(own.get("moduli", ()))
        if backend == "cyc_evalinterp":
            tracer.counters["detkit.evalinterp_moduli"] += moduli
            tracer.counters["detkit.scalar_dets"] += own.get("nodes", 0) * moduli
        elif backend == "int_modular":
            tracer.counters["detkit.int_modular_moduli"] += moduli
        bits = (
            abs(value).bit_length()
            if isinstance(value, int)
            else max((abs(c).bit_length() for c in value.coeffs), default=0)
        )
        if bits > tracer.counters["detkit.det_max_bits"]:
            tracer.counters["detkit.det_max_bits"] = bits
        return value

    return traced_det


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced body, every name present (0 if unused)."""
    incl, calls, self_s = tracer.totals()
    out: dict[str, float] = {}
    out["cycring.mul_calls"] = calls["cycring.mul"]
    out["cycring.mul_s"] = incl["cycring.mul"]
    out["matrices.build_calls"] = calls["matrices.build"]
    out["matrices.build_s"] = incl["matrices.build"]
    out["matrices.matmul_s"] = incl["matrices.matmul"]
    for backend, families in FAMILIES.items():
        total_s, total_calls = 0.0, 0
        for fam in families:
            name = f"detkit.{backend}.{fam}"
            out[f"{name}_s"] = incl[name]
            total_s += incl[name]
            total_calls += calls[name]
        out[f"detkit.{backend}_s"] = total_s
        if backend.startswith("cyc_"):
            out[f"detkit.{backend}_calls"] = total_calls
    for key in ("detkit.evalinterp_moduli", "detkit.scalar_dets",
                "detkit.int_modular_moduli", "detkit.det_max_bits"):
        out[key] = tracer.counters[key]
    out["subfield.quad_decompose_s"] = incl["subfield.quad_decompose"]
    out["subfield.quartic_decompose_s"] = incl["subfield.quartic_decompose"]
    out["subfield.gauss_sum_s"] = incl["subfield.gauss_sum"]
    out["classno.fundamental_unit_calls"] = calls["classno.fundamental_unit"]
    out["classno.fundamental_unit_s"] = incl["classno.fundamental_unit"]
    out["classno.product_formula_s"] = incl["classno.product_formula"]
    out["classno.squares_product_s"] = incl["classno.squares_product"]
    out["classno.h_neg_s"] = incl["classno.h_neg"]
    out["verify.run_prime_calls"] = calls["verify.run_prime"]
    out["verify.run_prime_s"] = incl["verify.run_prime"]
    out["verify.legendre_identity_s"] = incl["verify.legendre_identity"]
    passed = tracer.counters["verify.checks_pass"]
    failed = tracer.counters["verify.checks_fail"]
    skipped = tracer.counters["verify.checks_skipped"]
    out["verify.checks"] = passed + failed + skipped
    out["verify.checks_failed"] = failed
    out["verify.checks_skipped"] = skipped
    out["cli.serialize_s"] = incl["cli.serialize"]
    for layer in LAYERS[1:]:  # cycring's one span is mul, so its self time is mul_s
        out[f"{layer}.self_s"] = self_s[layer]
    return out
