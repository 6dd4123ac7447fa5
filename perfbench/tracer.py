"""Outside-in layer tracer for ballrep.

The tracer wraps the package's public functions from outside: every
module attribute that is one of the wrapped functions is replaced, so a
call is caught under whatever name its caller looks it up by
(``ballrep.solvers.volume``, ``ballrep.cli.finite_volume_test``, ...), and
``GeneralizedPolynomial.evaluate`` is replaced on the class.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

Each wrapped call becomes a span (name, start, end, parent, item id and a
few attributes) kept in memory.  ``layer_metrics`` turns the spans of one
traced pass into the per-layer metrics; a ``_s`` metric is self time: the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

_BACKEND_LABELS = {"spherical": "spherical", "monte_carlo": "mc", "grid_oracle": "grid"}

# span name -> the self-time metric it is charged to
SELF_TIME_METRIC = {
    "polynomials.evaluate": "polynomials.evaluate_s",
    "volume.spherical": "volume.spherical_s",
    "volume.mc": "volume.mc_s",
    "volume.grid": "volume.grid_s",
    "volume.gate": "volume.gate_s",
    "solvers.solve": "solvers.self_s",
    "solvers.rescale": "solvers.self_s",
    "projections.project": "projections.s",
    "jacobi.eigh": "jacobi.s",
    "certificates.certify": "certificates.s",
    "serialize.call": "serialize.s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.handler_s",
    "cli.handler": "cli.handler_s",
}

# every per-layer metric in report order, with its unit and better direction
LAYER_METRICS = (
    ("polynomials.evaluate_point_calls", "count", "lower"),
    ("polynomials.evaluate_batch_points", "count", "lower"),
    ("polynomials.evaluate_s", "s", "lower"),
    ("volume.spherical_passes", "count", "lower"),
    ("volume.spherical_nodes", "count", "lower"),
    ("volume.spherical_s", "s", "lower"),
    ("volume.spherical_grid_repeat_share", "1", "higher"),
    ("volume.mc_passes", "count", "lower"),
    ("volume.mc_samples", "count", "lower"),
    ("volume.mc_s", "s", "lower"),
    ("volume.mc_ess_ratio", "1", "higher"),
    ("volume.grid_passes", "count", "lower"),
    ("volume.grid_cells", "count", "lower"),
    ("volume.grid_s", "s", "lower"),
    ("volume.gate_calls", "count", "lower"),
    ("volume.gate_evals_per_call", "count", "lower"),
    ("volume.gate_infinite", "count", "lower"),
    ("volume.gate_s", "s", "lower"),
    ("solvers.solves", "count", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.volume_evals", "count", "lower"),
    ("solvers.gradient_evals", "count", "lower"),
    ("solvers.accept_ratio", "1", "higher"),
    ("solvers.infeasible_trials", "count", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("projections.calls", "count", "lower"),
    ("projections.s", "s", "lower"),
    ("jacobi.calls", "count", "lower"),
    ("jacobi.s", "s", "lower"),
    ("certificates.calls", "count", "lower"),
    ("certificates.failed", "count", "lower"),
    ("certificates.s", "s", "lower"),
    ("serialize.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("cli.handler_s", "s", "lower"),
    ("other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "item", "attrs", "error")

    def __init__(self, sid, name, start, parent, item):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.attrs = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        doc = {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            "error": self.error,
        }
        doc.update(self.attrs)
        return doc

    @classmethod
    def from_dict(cls, doc: dict, offset: int = 0) -> "Span":
        fixed = ("id", "name", "start", "end", "parent", "item", "error")
        parent = doc["parent"]
        span = cls(doc["id"] + offset, doc["name"], doc["start"],
                   None if parent is None else parent + offset, doc["item"])
        span.end = doc["end"]
        span.error = doc["error"]
        span.attrs = {k: v for k, v in doc.items() if k not in fixed}
        return span


# -- wrapped functions: (defining module, name, span kind) --------------------

_VOLUME_FUNCTIONS = ("volume", "moment", "moment_table", "moment_matrix",
                     "grad_volume", "euler_residual")
_SERIALIZE_FUNCTIONS = (
    "polynomial_to_dict", "polynomial_from_dict", "serialize_polynomial",
    "parse_polynomial", "gram_to_dict", "gram_from_dict", "serialize_gram",
    "parse_gram", "parse_candidate", "moment_rows_to_csv", "moment_rows_from_csv",
)
_CLI_HANDLERS = ("cmd_volume", "cmd_moments", "cmd_solve", "cmd_certify",
                 "cmd_ball_table", "cmd_boundary")

TARGETS = (
    [("ballrep.polynomials", "GeneralizedPolynomial.evaluate", "evaluate")]
    + [("ballrep.volume", name, "volume") for name in _VOLUME_FUNCTIONS]
    + [("ballrep.volume", "finite_volume_test", "gate"),
       ("ballrep.volume", "_estimate", "estimate")]
    + [("ballrep.solvers", name, "solve") for name in ("solve_p1", "solve_p2", "solve_p3")]
    + [("ballrep.solvers", "scale_to_target_volume", "solvers.rescale")]
    + [("ballrep.projections", name, "projections.project") for name in (
        "project_simplex", "project_l1_ball", "project_weighted_l2_ball", "project_psd_trace")]
    + [("ballrep.jacobi", "jacobi_eigh", "jacobi.eigh")]
    + [("ballrep.certificates", name, "certify") for name in (
        "certify_p1", "certify_p2", "certify_p3", "refute_ld_for_p3")]
    + [("ballrep.serialize", name, "serialize.call") for name in _SERIALIZE_FUNCTIONS]
    + [("ballrep.cli", "main", "cli.main")]
    + [("ballrep.cli", name, "cli.handler") for name in _CLI_HANDLERS]
)


class Tracer:
    """In-memory span recorder that patches ballrep while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.item = None
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.item)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None):
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        self.stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "ballrep" or name.startswith("ballrep."))]
        seen = set()
        for module_name, qualname, kind in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # not imported, so nothing can call into it
                continue
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, attr, None)
            if original is None or id(original) in seen:
                if original is None:
                    self.missing.append(f"{module_name}.{qualname}")
                continue
            seen.add(id(original))
            wrapper = self._wrap(original, kind, module)
            if owner:
                self._patch(holder, attr, original, wrapper)
                continue
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self):
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    def _patch(self, holder, name, original, wrapper):
        self._restore.append((holder, name, original))
        setattr(holder, name, wrapper)

    def _wrap(self, fn, kind, module):
        if kind == "evaluate":
            return self._wrap_evaluate(fn)
        if kind == "estimate":
            return self._wrap_estimate(fn)
        name_of = describe = None
        if kind == "volume":
            signature = inspect.signature(fn)
            defaults = getattr(module, "DEFAULT_BUDGETS", {})

            def name_of(args, kwargs, attrs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                backend = bound.arguments.get("backend")
                budget = bound.arguments.get("budget")
                attrs["fn"] = fn.__name__
                attrs["n"] = getattr(bound.arguments.get("g"), "n", None)
                attrs["budget"] = defaults.get(backend) if budget is None else int(budget)
                return "volume." + _BACKEND_LABELS.get(backend, str(backend))
        elif kind == "gate":
            def describe(attrs, result):
                attrs["infinite"] = not result.finite_volume
            kind = "volume.gate"
        elif kind == "solve":
            def describe(attrs, result):
                attrs["problem"] = result.problem
                attrs["iterations"] = max(0, len(result.iterations) - 1)
            kind = "solvers.solve"
        elif kind == "certify":
            def describe(attrs, result):
                attrs["failed"] = not getattr(result, "passed", True)
            kind = "certificates.certify"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            span = tracer.open(name_of(args, kwargs, attrs) if name_of else kind)
            span.attrs = attrs
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            tracer.close(span)
            if describe is not None:
                describe(attrs, result)
            return result

        return wrapper

    def _wrap_evaluate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def evaluate(poly, x):
            span = tracer.open("polynomials.evaluate")
            try:
                out = fn(poly, x)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            tracer.close(span)
            # a single point comes back as a float, a batch as an array
            span.attrs = {"points": 1, "single": True} if isinstance(out, float) else {
                "points": int(getattr(out, "size", 1)), "single": False}
            return out

        return evaluate

    def _wrap_estimate(self, fn):
        # the backend dispatcher: no span of its own, it only records the node
        # or sample count and the ESS on the public volume span that called it
        tracer = self

        @functools.wraps(fn)
        def estimate(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.stack:
                est = result[0]
                attrs = tracer.stack[-1].attrs
                attrs["nodes"] = int(est.samples_or_nodes)
                if est.ess is not None:
                    attrs["ess"] = float(est.ess)
            return result

        return estimate


# -- -X importtime -------------------------------------------------------------


def import_split(report: str, packages=("numpy", "scipy")) -> dict[str, float]:
    """Seconds spent in the module bodies of each package while importing.

    Sums the self column of a ``-X importtime`` report over every module of
    the package, so nested imports are neither missed nor counted twice.
    """
    totals = dict.fromkeys(packages, 0.0)
    for line in report.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        own, name = fields[0].strip(), fields[2].strip()
        root = name.split(".")[0]
        if own.isdigit() and root in totals:
            totals[root] += int(own) * 1e-6
    return totals


# -- per-layer metrics ---------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - covered.get(s.sid, 0.0) for s in spans}


def _solver_counts(spans: list[Span], m: dict):
    """Walk each solve's direct children: start, descent, then final phase.

    Gradient passes (grad_volume or moment_matrix) open the descent; the
    rescale to the target volume, the certificate's moment table or the
    certificate itself close it.  Volume passes during the descent are the
    line search.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    line_search = 0
    for solve in (s for s in spans if s.name == "solvers.solve"):
        m["solvers.solves"] += 1
        m["solvers.iterations"] += solve.attrs.get("iterations", 0)
        phase = "start"
        for c in children.get(solve.sid, []):
            fn = c.attrs.get("fn")
            if c.name in ("solvers.rescale", "certificates.certify") or fn == "moment_table":
                phase = "final"
            elif fn in ("grad_volume", "moment_matrix") and phase != "final":
                phase = "descent"
                m["solvers.gradient_evals"] += 1
            elif fn == "volume":
                m["solvers.volume_evals"] += 1
                if phase == "descent":
                    line_search += 1
                    if c.error == "InfiniteVolumeError":
                        m["solvers.infeasible_trials"] += 1
    m["solvers.accept_ratio"] = m["solvers.iterations"] / line_search if line_search else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass of ``wall`` seconds.

    The ``_s`` metrics and ``other_s`` add up to ``wall``: other_s is the
    traced wall time not covered by any top-level span.
    """
    m: dict[str, float] = {name: 0 for name in LAYER_UNITS}
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    in_gate: dict[int, bool] = {}
    gate_points = 0
    seen_grids = set()
    repeats = 0
    ess_sum = 0.0
    for s in spans:
        parent = by_id.get(s.parent)
        in_gate[s.sid] = parent is not None and (
            parent.name == "volume.gate" or in_gate[parent.sid])
        metric = SELF_TIME_METRIC.get(s.name)
        if metric is not None:
            m[metric] += own[s.sid]
        a = s.attrs
        if s.name == "polynomials.evaluate":
            if a.get("single"):
                m["polynomials.evaluate_point_calls"] += 1
            else:
                m["polynomials.evaluate_batch_points"] += a.get("points", 0)
            if in_gate[s.sid]:
                gate_points += a.get("points", 0)
        elif s.name == "volume.spherical":
            m["volume.spherical_passes"] += 1
            m["volume.spherical_nodes"] += a.get("nodes", 0)
            key = (a.get("n"), a.get("budget"))
            repeats += key in seen_grids
            seen_grids.add(key)
        elif s.name == "volume.mc":
            m["volume.mc_passes"] += 1
            m["volume.mc_samples"] += a.get("nodes", 0)
            ess_sum += a.get("ess", 0.0)
        elif s.name == "volume.grid":
            m["volume.grid_passes"] += 1
            m["volume.grid_cells"] += a.get("nodes", 0)
        elif s.name == "volume.gate":
            m["volume.gate_calls"] += 1
            m["volume.gate_infinite"] += bool(a.get("infinite"))
        elif s.name == "projections.project":
            m["projections.calls"] += 1
        elif s.name == "jacobi.eigh":
            m["jacobi.calls"] += 1
        elif s.name == "certificates.certify":
            m["certificates.calls"] += 1
            m["certificates.failed"] += bool(a.get("failed"))
        elif s.name == "cli.import":
            m["cli.import_numpy_s"] += a.get("numpy_s", 0.0)
            m["cli.import_scipy_s"] += a.get("scipy_s", 0.0)
    _solver_counts(spans, m)
    passes = m["volume.spherical_passes"]
    m["volume.spherical_grid_repeat_share"] = repeats / passes if passes else 0.0
    samples = m["volume.mc_samples"]
    m["volume.mc_ess_ratio"] = ess_sum / samples if samples else 0.0
    gates = m["volume.gate_calls"]
    m["volume.gate_evals_per_call"] = gate_points / gates if gates else 0.0
    m["trace.wall_s"] = wall
    m["other_s"] = wall - sum(s.duration for s in spans if s.parent is None)
    return m


def write_jsonl(spans: list[Span], path):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s.to_dict()) + "\n")
