"""Spans and counters recorded from outside heckeforge.

A `Recorder` wraps the public functions of each layer by rebinding them in
their defining module (or class) and in every `heckeforge` module that
imported them by name.  Nothing is recorded outside a `region()`, so the
benchmark's own answer checks never show up in the numbers.

Two kinds of wrapper are kept apart, because a wrapper on a hot inner call
would inflate the self time of every span above it:

* `install_spans()` records a span (name, start, end, parent) per call of the
  listed layer functions, plus counts read from their return values;
* `install_counts()` only counts calls of the hot inner operations.

Every region is also timed in `ref` units, against a fixed piece of reference
work timed while the region runs (see `Recorder`).
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import marshal
import signal
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

ROOT_SPAN = "op"
REFERENCE_SPAN = "reference"  # a sample of the reference work inside a region

# How often a timed region stops to time the reference work (see `Recorder`).
SAMPLE_EVERY_S = 0.1
# The same while a worker imports heckeforge, which takes about 0.1 s.
IMPORT_SAMPLE_EVERY_S = 0.02
# A fixed speed at which import times in ref units are turned back into
# seconds: the import reference work's time on an idle core of the 2.0 GHz
# Xeon the benchmark was tuned on is about this.
NOMINAL_IMPORT_REF_S = 0.004


def reference_work():
    """A fixed ~2 ms of pure-Python work of the kinds heckeforge does: tuple
    comprehensions over permutations, tuple-keyed dict updates and Fraction
    sums."""
    perm, exps = (2, 3, 1, 5, 4), (0, 1, 2, 0, 1)
    tally: dict = {}
    total = Fraction(0)
    for i in range(400):
        exps = tuple((exps[perm[j] - 1] + j) % 3 for j in range(5))
        key = (exps, i % 7)
        tally[key] = tally.get(key, 0) + 1
        total += Fraction(i % 17, i % 19 + 1)
    return total


_IMPORT_REFERENCE_SOURCE = "\n".join(
    f"""
@dataclasses.dataclass(frozen=True)
class Element{i}:
    r: int
    exps: tuple

    def times(self, other):
        return Element{i}(self.r, tuple((a + b) % self.r for a, b in zip(self.exps, other.exps)))


TABLE{i} = {{k: Fraction(k, {i + 2}) for k in range(40)}}
"""
    for i in range(4)
)
_IMPORT_REFERENCE_CODE = marshal.dumps(compile(_IMPORT_REFERENCE_SOURCE, "<reference>", "exec"))


def import_reference_work():
    """A fixed ~4 ms of what importing a heckeforge module does: unmarshal a
    code object and run a module body that builds dataclasses and tables.
    On a shared machine, import time follows this work's speed changes more
    closely than it follows those of `reference_work`."""
    exec(marshal.loads(_IMPORT_REFERENCE_CODE), {"dataclasses": dataclasses, "Fraction": Fraction})


def reference_s(work=reference_work):
    """Seconds the reference `work` takes now, with the garbage collector off
    so that the op's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _count_len(key):
    def on_result(counts, result, args):
        counts[key] += len(result)

    return on_result


def _count_hh_component(counts, result, args):
    counts["hochschild.nonzero"] += not result.is_zero()


def _count_reynolds(counts, result, args):
    counts["polyforms.basis_out"] += len(result)
    counts["polyforms.reynolds_nonempty"] += bool(result)


def _count_echelon(counts, result, args):
    counts["cyclo.echelon_rows.rows_in"] += len(args[0])  # both callers pass a list
    counts["cyclo.echelon_rows.rows_out"] += len(result)


def _count_terms(counts, result, args):
    counts["ncalg.terms_out"] += len(result.terms)


# (span name, module, class or None, attribute, counter read from the result)
SPAN_TARGETS = [
    ("group.conjugacy_classes", "heckeforge.group", None, "conjugacy_classes", _count_len("group.class_count")),
    ("group.centralizer", "heckeforge.group", None, "centralizer", _count_len("group.centralizer_elems")),
    ("hochschild.hochschild_character", "heckeforge.hochschild", None, "hochschild_character", None),
    ("hochschild.hh_component", "heckeforge.hochschild", None, "hh_component", _count_hh_component),
    ("hochschild.fixed_space", "heckeforge.hochschild", None, "fixed_space", None),
    ("polyforms.reynolds_semiinvariant_basis", "heckeforge.polyforms", None, "reynolds_semiinvariant_basis", _count_reynolds),
    ("polyforms.restriction_matrix", "heckeforge.polyforms", None, "restriction_matrix", None),
    ("cyclo.matmul", "heckeforge.cyclo", "CycloMatrix", "__mul__", None),
    ("cyclo.determinant", "heckeforge.cyclo", "CycloMatrix", "determinant", None),
    ("cyclo.echelon_rows", "heckeforge.cyclo", None, "echelon_rows", _count_echelon),
    ("hecke.param_space", "heckeforge.hecke", None, "param_space", None),
    ("hecke.param_space_linear_oracle", "heckeforge.hecke", None, "param_space_linear_oracle", None),
    ("hecke.pbw_check", "heckeforge.hecke", None, "pbw_check", None),
    ("hecke.build_preset", "heckeforge.hecke", None, "build_preset", None),
    ("ncalg.multiply", "heckeforge.ncalg", "_AlgebraBase", "multiply", _count_terms),
    ("ncalg.verify_iso", "heckeforge.ncalg", None, "verify_iso", None),
    ("ncalg.pbw_dimension_check", "heckeforge.ncalg", None, "pbw_dimension_check", None),
    ("cli.main", "heckeforge.cli", None, "main", None),
]

# (counter name, module, class or None, attribute)
COUNT_TARGETS = [
    ("group.multiply.calls", "heckeforge.group", None, "multiply"),
    ("group.element_new.calls", "heckeforge.group", "GroupElement", "__post_init__"),
    ("cyclo.num_mul.calls", "heckeforge.cyclo", "CycloNum", "__mul__"),
    ("cyclo.num_add.calls", "heckeforge.cyclo", "CycloNum", "__add__"),
]


def _rebind(module, cls, attr, make_wrapper):
    """Replace every binding of the target with one wrapper: all names of the
    class bound to the method (`__rmul__ = __mul__`), or the module global
    plus each `heckeforge` module that imported the function by name."""
    mod = sys.modules[module]
    if cls is not None:
        owner = getattr(mod, cls)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        for name, value in list(owner.__dict__.items()):
            if value is original:
                setattr(owner, name, wrapper)
        return
    original = getattr(mod, attr)
    wrapper = make_wrapper(original)
    for name, other in list(sys.modules.items()):
        if (name == "heckeforge" or name.startswith("heckeforge.")) and getattr(other, attr, None) is original:
            setattr(other, attr, wrapper)


class Recorder:
    """Per-process record of timed regions, spans and counters.

    A region is timed in seconds (`elapsed`) and in `ref` units
    (`elapsed_ref`): multiples of the time of the `reference` work at that
    moment.  A shared machine's speed can halve for seconds at a time, and a
    time in ref units follows such changes much less.  The reference work is
    timed just before and just after the region and from a SIGALRM handler
    every `sample_every` seconds inside it; each slice of the region between
    two samples is divided by their mean.  The
    handler's own time is left out of both figures, and is recorded as a
    child span so that it is left out of the self time of the span it
    interrupts.
    """

    def __init__(self, sample_every=SAMPLE_EVERY_S, reference=reference_work):
        self.spans: list = []  # (name, start, end, parent index; -1 for a root)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.elapsed = 0.0
        self.elapsed_ref = 0.0
        self.samples = 0
        self.sample_every = sample_every
        self.reference = reference
        self._in_region = False
        self._mark = 0.0  # end of the slice already counted
        self._last_ref = 0.0
        self._paused = 0.0  # handler time inside the current region

    def _advance(self, now, ref):
        self.elapsed_ref += (now - self._mark) / ((self._last_ref + ref) / 2)
        self._mark, self._last_ref = now, ref
        self.samples += 1

    def _on_alarm(self, signum, frame):
        if not self._in_region:
            return
        self._in_region = False  # an alarm that comes while sampling is dropped
        t = perf_counter()
        self._advance(t, reference_s(self.reference))
        self._mark = perf_counter()
        self._in_region = True
        self._paused += self._mark - t
        self.spans.append((REFERENCE_SPAN, t, self._mark, self.stack[-1]))

    @contextmanager
    def region(self):
        """Time the enclosed public calls as one root span."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        self._last_ref, self._paused = reference_s(self.reference), 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
        self._in_region = True
        t0 = self._mark = perf_counter()
        try:
            yield
        finally:
            self._in_region = False
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            stack.pop()
            spans[idx] = (ROOT_SPAN, t0, t1, -1)
            self._advance(t1, reference_s(self.reference))
            self.elapsed += t1 - t0 - self._paused

    def install_spans(self):
        for name, module, cls, attr, on_result in SPAN_TARGETS:
            _rebind(module, cls, attr, functools.partial(self._span_wrapper, name, on_result))

    def install_counts(self):
        for key, module, cls, attr in COUNT_TARGETS:
            _rebind(module, cls, attr, functools.partial(self._count_wrapper, key))

    def _span_wrapper(self, name, on_result, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1])
            if on_result is not None:
                on_result(counts, result, args)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans):
    """{name: [calls, self seconds]}: each span's duration minus the part of
    it covered by its direct children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (t1 - t0) - child[i]
    return out
