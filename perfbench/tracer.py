"""Span tracing of the nehari_frac package, installed from outside it.

`Tracer.wrap` replaces a function with a recording wrapper in every loaded
module of the package that holds a binding to it, so a call is seen
whichever module's name the caller used (`plap_gradient`, for one, is imported by name
into energy, constants, solver and bubbles).  A target that does not exist
is recorded as absent, so the metrics built on it read "absent", never 0.

Each span is `[name, start, end, parent]`, where `parent` is the index of
the enclosing span on the same thread, or -1.  Spans stay in memory; the
summary functions below turn them into self times and call counts.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package="nehari_frac", clock=time.perf_counter):
        self.package = package
        self.spans = []
        self.counters = defaultdict(int)
        self.absent = []
        self._tallies = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def record(self, name, fn, on_return=None, on_error=None):
        """Wrap fn so that each call records a span called name.

        on_return(args, kwargs, result) and on_error(exc) may update
        counters; the exception itself is always re-raised."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = [name, 0.0, None, stack[-1] if stack else -1]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(index)
            rec[1] = tracer._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = tracer._clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn so that each call adds 1 to counter name, without a span.

        The tally is an itertools.count, whose increment is one C call, so
        the hot fibering callbacks pay no lock."""
        tally = itertools.count()
        self._tallies.append((name, tally))
        bump = tally.__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        return wrapper

    def collect(self):
        """Move the counted() tallies into counters; call once, at the end."""
        for name, tally in self._tallies:
            self.counters[name] += next(tally)
        self._tallies = []

    def wrap(self, module, attr, make_wrapper) -> bool:
        """Rebind package.module.attr, and every alias of it in the package,
        to make_wrapper(original).  Returns False and records the target as
        absent when the module or the name does not exist."""
        target = f"{module}.{attr}"
        try:
            mod = importlib.import_module(f"{self.package}.{module}")
        except ImportError:
            self.absent.append(target)
            return False
        original = getattr(mod, attr, None)
        if original is None:
            self.absent.append(target)
            return False
        wrapped = make_wrapper(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
        return True


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children counted once)."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def under(spans, ancestor):
    """Per span: True when some enclosing span is called ancestor."""
    flags = []
    for name, start, end, parent in spans:
        flags.append(parent >= 0 and (spans[parent][0] == ancestor or flags[parent]))
    return flags


def summarize(spans):
    """{name: {"calls", "self_s", "total_s"}}; total_s sums the spans that
    no span of the same name encloses, so recursion is not counted twice."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        if p < 0:
            entry["total_s"] += end - start
    return dict(out)
