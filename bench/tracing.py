"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps public functions of the croftonlab layers at every
place a module looks them up (the owning module, and each module that
imported the name), so calls between layers are seen without changing the
program.  Each span records name, start, end, parent span and operation id;
spans stay in memory and `layer_metrics` reduces them when a pass ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from croftonlab import cli, coeffcore, extalg, geom, planes, valuations, varcheck

MODULES = (coeffcore, extalg, geom, valuations, planes, varcheck, cli)

# (owning module, function name, span name)
FUNCTIONS = [
    (geom, "sample_boundary", "geom.sample_boundary"),
    (geom, "sphere_grid", "geom.sphere_grid"),
    (extalg, "build_pullbacks", "extalg.build_pullbacks"),
    (extalg, "density_beta", "extalg.density"),
    (extalg, "density_gamma", "extalg.density"),
    (extalg, "permutation_oracle", "extalg.permutation_oracle"),
    (valuations, "hermitian_volumes", "valuations.hermitian_volumes"),
    (valuations, "ball_closed_form", "valuations.ball_closed_form"),
    (valuations, "gauss_bonnet_residual", "valuations.gauss_bonnet_residual"),
    (planes, "chi_measure_estimate", "planes.chi_measure_estimate"),
    (planes, "calibrate", "planes.calibrate"),
    (planes, "total_gauss_estimate", "planes.total_gauss_estimate"),
    (planes, "grassmann_sigma_average", "planes.grassmann_sigma_average"),
    (varcheck, "tilde_integrals", "varcheck.tilde_integrals"),
    (varcheck, "variation_fd", "varcheck.variation_fd"),
    (varcheck, "crofton_variation_check", "varcheck.crofton_variation_check"),
    (cli, "main", "cli.main"),
] + [
    (coeffcore, name, "coeffcore")
    for name in coeffcore.__all__
    if inspect.isfunction(getattr(coeffcore, name, None))
]

TABLE_SPANS = ("valuations.hermitian_volumes", "valuations.ball_closed_form")
FD_SPANS = ("varcheck.variation_fd", "varcheck.crofton_variation_check")


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    info: object  # per-function counts, see INFO

    @property
    def duration(self) -> float:
        return self.end - self.start


@functools.lru_cache(maxsize=None)
def _signature(fn: Callable) -> inspect.Signature:
    return inspect.signature(fn)


def _arguments(fn: Callable, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hits(est, samples: int) -> int:
    """Hits behind a binomial MCEstimate: stderr/mean = sqrt((1-p)/(p(N-1)))."""
    if est.mean == 0:
        return 0
    ratio = est.stderr / est.mean
    return round(samples / (1.0 + ratio * ratio * (samples - 1)))


def _info_sample_boundary(fn, args, kwargs, out):
    arrays = (out.positions, out.normals, out.frames, out.h, out.weights)
    return len(out), sum(a.nbytes for a in arrays)


def _info_build_pullbacks(fn, args, kwargs, out):
    h = _arguments(fn, args, kwargs)["h"]
    shape = getattr(h, "mat", h).shape
    return shape[0] if len(shape) == 3 else 1


def _info_chi_measure(fn, args, kwargs, out):
    n_samples = _arguments(fn, args, kwargs)["N"]
    return n_samples, _hits(out, n_samples)


def _info_total_gauss(fn, args, kwargs, out):
    n_samples = _arguments(fn, args, kwargs)["N"]
    return n_samples, _hits(out.chi, n_samples)


def _info_coeffcore(fn, args, kwargs, out):
    key = (fn.__name__, args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


INFO = {
    "geom.sample_boundary": _info_sample_boundary,
    "extalg.build_pullbacks": _info_build_pullbacks,
    "planes.chi_measure_estimate": _info_chi_measure,
    "planes.total_gauss_estimate": _info_total_gauss,
    "coeffcore": _info_coeffcore,
}


class Tracer:
    """Records spans while installed; `spans` holds them in end order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str) -> Callable:
        info_fn = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # pool workers start with an empty stack: their parent is the
            # span that is open in the thread which installed the tracer
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(sid, name, start, perf_counter(), parent, self.op, None))
                raise
            finally:
                stack.pop()
            end = perf_counter()
            info = info_fn(fn, args, kwargs, out) if info_fn else None
            self.spans.append(Span(sid, name, start, end, parent, self.op, info))
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        self._local.stack = self._main_stack
        for owner, fname, name in FUNCTIONS:
            fn = getattr(owner, fname, None)
            if fn is None:
                continue
            traced = self._wrap(fn, name)
            for module in MODULES:
                if getattr(module, fname, None) is fn:
                    self._patch(module, fname, traced)
        self._patch(extalg.MultiVector, "wedge",
                    self._wrap(extalg.MultiVector.wedge, "extalg.wedge"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def layer_metrics(self, sphere_grid_misses: int, report_bytes: int) -> Dict[str, float]:
        return layer_metrics(self.spans, sphere_grid_misses, report_bytes)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: List[Span], sphere_grid_misses: int, report_bytes: int) -> Dict[str, float]:
    """Reduce one pass's spans to the per-layer metrics (trace_overhead_s aside)."""
    by_id = {s.sid: s for s in spans}
    by_name: Dict[str, List[Span]] = {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))

    def ancestors(s: Span):
        while s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def calls(name: str) -> int:
        return len(named(name))

    def busy(name: str) -> float:
        # outermost spans of `name` only, so recursion is not counted twice
        return sum(s.duration for s in named(name)
                   if all(a.name != name for a in ancestors(s)))

    def self_time(name: str) -> float:
        return sum(s.duration - _union_length(children.get(s.sid, [])) for s in named(name))

    def info_sum(name: str, index: Optional[int] = None) -> float:
        return sum(s.info if index is None else s.info[index]
                   for s in named(name) if s.info is not None)

    m: Dict[str, float] = {}
    nodes = info_sum("geom.sample_boundary", 0)
    m["geom.sample_boundary.calls"] = calls("geom.sample_boundary")
    m["geom.sample_boundary.s"] = busy("geom.sample_boundary")
    m["geom.boundary_nodes"] = nodes
    m["geom.us_per_node"] = 1e6 * m["geom.sample_boundary.s"] / nodes if nodes else 0.0
    m["geom.cloud_mb_max"] = max(
        (s.info[1] / 2**20 for s in named("geom.sample_boundary") if s.info), default=0.0
    )
    m["geom.sphere_grid.s"] = busy("geom.sphere_grid")
    m["geom.sphere_grid.misses"] = sphere_grid_misses

    m["extalg.build_pullbacks.calls"] = calls("extalg.build_pullbacks")
    m["extalg.build_pullbacks.s"] = busy("extalg.build_pullbacks")
    m["extalg.points"] = info_sum("extalg.build_pullbacks")
    m["extalg.wedge.calls"] = calls("extalg.wedge")
    m["extalg.wedge.s"] = busy("extalg.wedge")
    m["extalg.density.calls"] = calls("extalg.density")
    m["extalg.density.s"] = busy("extalg.density")
    m["extalg.permutation_oracle.s"] = busy("extalg.permutation_oracle")

    m["valuations.hermitian_volumes.calls"] = calls("valuations.hermitian_volumes")
    m["valuations.hermitian_volumes.s"] = busy("valuations.hermitian_volumes")
    m["valuations.hermitian_volumes.self_s"] = self_time("valuations.hermitian_volumes")
    m["valuations.ball_closed_form.calls"] = calls("valuations.ball_closed_form")
    m["valuations.ball_closed_form.s"] = busy("valuations.ball_closed_form")
    m["valuations.gauss_bonnet_residual.s"] = busy("valuations.gauss_bonnet_residual")

    drawn = info_sum("planes.chi_measure_estimate", 0) + info_sum("planes.total_gauss_estimate", 0)
    hits = info_sum("planes.chi_measure_estimate", 1) + info_sum("planes.total_gauss_estimate", 1)
    sampling_s = busy("planes.chi_measure_estimate") + busy("planes.total_gauss_estimate")
    chunk = planes.SAMPLE_CHUNK
    m["planes.chi_measure_estimate.calls"] = calls("planes.chi_measure_estimate")
    m["planes.chi_measure_estimate.s"] = busy("planes.chi_measure_estimate")
    m["planes.calibrate.s"] = busy("planes.calibrate")
    m["planes.total_gauss_estimate.s"] = busy("planes.total_gauss_estimate")
    m["planes.grassmann_sigma_average.s"] = busy("planes.grassmann_sigma_average")
    m["planes.planes_sampled"] = drawn
    m["planes.chunks"] = sum(
        math.ceil(s.info[0] / chunk)
        for name in ("planes.chi_measure_estimate", "planes.total_gauss_estimate")
        for s in named(name) if s.info
    )
    m["planes.us_per_plane"] = 1e6 * sampling_s / drawn if drawn else 0.0
    m["planes.hit_ratio"] = hits / drawn if drawn else 0.0

    core = named("coeffcore")
    m["coeffcore.calls"] = len(core)
    m["coeffcore.s"] = busy("coeffcore")
    m["coeffcore.distinct_ratio"] = len({s.info for s in core}) / len(core) if core else 0.0

    m["varcheck.tilde_integrals.s"] = busy("varcheck.tilde_integrals")
    m["varcheck.variation_fd.s"] = busy("varcheck.variation_fd")
    m["varcheck.crofton_variation_check.s"] = busy("varcheck.crofton_variation_check")

    def fd_table(s: Span) -> bool:
        for a in ancestors(s):
            if a.name == "varcheck.tilde_integrals":
                return False
            if a.name in FD_SPANS:
                return True
        return False

    m["varcheck.fd_tables"] = sum(
        1 for name in TABLE_SPANS for s in named(name)
        if fd_table(s) and all(a.name not in TABLE_SPANS for a in ancestors(s))
    )

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_time("cli.main")
    m["cli.report_bytes"] = report_bytes
    return m
