"""In-memory span recording around calls into whdpd, wrapped from outside.

A site names a function by its defining module (or a class attribute). It is
wrapped in that module and in every whdpd module that bound the same object
under the same name at import (``from .dsp import synchronize``), because a
call through such a binding never looks the name up in the defining module
again. ``patched`` restores every original on exit.
"""

import contextlib
import functools
import importlib
import json
import time

WHDPD_MODULES = ("whdpd", "whdpd.dsp", "whdpd.model", "whdpd.learn",
                 "whdpd.txsim", "whdpd.experiment", "whdpd.cli",
                 "whdpd.kernels")


def _fir_io(x, h):
    return (len(x), len(h))


def _fir_taps_io(g, x, k):
    return (len(x), int(k))


def _dpd_io(artifact, x):
    return (x.samples.size,)


# (owner, attribute, span name, tag function). An owner is a module name or
# "module:Class". The tag function gets the call's positional arguments and
# returns what the span records about its size.
COARSE_SITES = (
    ("whdpd.experiment:Workbench", "train", "experiment.train", None),
    ("whdpd.experiment:Workbench", "evaluate", "experiment.evaluate", None),
    ("whdpd.cli", "main", "cli.main", None),
)

FINE_SITES = (
    ("whdpd.kernels", "fir_same", "kernels.fir_same", _fir_io),
    ("whdpd.kernels", "fir_grad_input", "kernels.fir_grad_input", _fir_io),
    ("whdpd.kernels", "fir_grad_taps", "kernels.fir_grad_taps",
     _fir_taps_io),
    ("whdpd.kernels", "poly_apply", "kernels.poly_apply", None),
    ("whdpd.kernels", "poly_slope", "kernels.poly_slope", None),
    ("whdpd.model", "wh_forward", "model.wh_forward", None),
    ("whdpd.model:WhModel", "copy", "model.copy", None),
    ("whdpd.learn", "indirect_learn", "learn.indirect_learn", None),
    ("whdpd.learn", "fit_postestimator", "learn.fit", None),
    ("whdpd.learn", "wh_backward", "learn.wh_backward", None),
    ("whdpd.learn", "adam_step", "learn.adam_step", None),
    ("whdpd.learn", "apply_dpd", "learn.apply_dpd", _dpd_io),
    ("whdpd.txsim", "simulate_tx", "txsim.simulate_tx", None),
    ("whdpd.dsp", "synchronize", "dsp.synchronize", None),
    ("whdpd.dsp", "snr_db", "dsp.snr_db", None),
    ("whdpd.dsp", "shape_pulse", "dsp.shape_pulse", None),
    ("whdpd.dsp", "rms_normalize", "dsp.rms_normalize", None),
    ("whdpd.experiment:Workbench", "run_point", "experiment.run_point", None),
    ("whdpd.experiment", "run_experiment", "experiment.run_experiment", None),
    ("whdpd.experiment", "sweep_amplitude_with_fixed_dpd",
     "experiment.sweep_fixed", None),
)


class Tracer:
    """Spans as parallel lists; a span's parent is the span open when it
    started (-1 for a root). Spans are appended when they open, so every
    parent precedes its children."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = {}
        self._stack = []

    def open(self, name, tag=None):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        if tag is not None:
            self.tags[i] = tag
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def duration(self, i):
        return self.ends[i] - self.starts[i]

    def root_of(self):
        roots = []
        for i, p in enumerate(self.parents):
            roots.append(i if p < 0 else roots[p])
        return roots

    def self_times(self):
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.duration(i)
        return [self.duration(i) - child[i] for i in range(len(self.names))]

    def under(self, ancestor):
        """Per span: does it have an ancestor named ``ancestor``?"""
        flags = []
        for p in self.parents:
            flags.append(p >= 0 and (flags[p] or self.names[p] == ancestor))
        return flags

    def check_trees(self):
        """Problems with nesting or self times; empty when consistent.

        Children must lie inside their parent's interval, and the self times
        of every tree must add up to the duration of its root."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
            return problems
        for i, p in enumerate(self.parents):
            if p >= 0 and not (self.starts[p] <= self.starts[i]
                               and self.ends[i] <= self.ends[p]):
                problems.append(f"span {i} ({self.names[i]}) lies outside "
                                f"its parent {p} ({self.names[p]})")
        selfs = self.self_times()
        totals = {}
        for i, r in enumerate(self.root_of()):
            totals[r] = totals.get(r, 0.0) + selfs[i]
        for r, total in totals.items():
            dur = self.duration(r)
            if abs(total - dur) > 1e-9 + 1e-9 * abs(dur):
                problems.append(f"self times of tree {r} ({self.names[r]}) "
                                f"add up to {total!r} s, root lasts {dur!r} s")
        return problems

    def to_jsonl(self, path):
        """One JSON array per span: name, start, end, parent index, tag."""
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps([name, self.starts[i], self.ends[i],
                                    self.parents[i], self.tags.get(i)]))
                f.write("\n")


def _wrap(tracer, name, fn, tag_fn):
    if tag_fn is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name, tag_fn(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
    return traced


def _owner(spec):
    module, _, cls = spec.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def lookup_places(spec, attr):
    """Every (object, attribute) through which whdpd code reaches the site."""
    owner = _owner(spec)
    original = getattr(owner, attr)
    places = [owner]
    if ":" not in spec:
        for name in WHDPD_MODULES:
            mod = importlib.import_module(name)
            if mod is not owner and getattr(mod, attr, None) is original:
                places.append(mod)
    return original, places


@contextlib.contextmanager
def patched(tracer, sites):
    """Wrap every lookup place of each site; restore the originals on exit."""
    saved = []
    try:
        for spec, attr, name, tag_fn in sites:
            original, places = lookup_places(spec, attr)
            wrapper = _wrap(tracer, name, original, tag_fn)
            for place in places:
                saved.append((place, attr, original))
                setattr(place, attr, wrapper)
        yield
    finally:
        for place, attr, original in reversed(saved):
            setattr(place, attr, original)
