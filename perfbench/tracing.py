"""Span recording around the program's public entry points.

The traced run installs wrappers from this file around public
functions and methods of ``repro`` (the program itself is unchanged)
and keeps every span in memory as a tuple
``(sid, parent, root, name, start, end)``.  All spans of one request
or call share ``root``.  :meth:`SpanLog.dump` writes them out once,
when the run ends.

Work that crosses threads — the service hands a prepared job from the
request thread to a worker — is stitched back together by job id: the
span that called ``Executor.prepare`` becomes the parent of the
worker's ``Executor.execute`` span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

import stats

#: (module, function or Class.method, span name) of every wrapped
#: entry point; ``Executor.prepare`` records no span, only which span
#: prepared each job.  Backend hooks are listed separately because
#: every backend class overrides them.
TARGETS = (
    ("repro.serve.gateway", "Gateway.handle", "serve.handle"),
    ("repro.serve.protocol", "parse_simulation_request", "serve.parse"),
    ("repro.io.serialize", "circuit_from_dict", "io.json_decode"),
    ("repro.io.qasm_import", "fromQASM", "io.qasm_parse"),
    ("repro.simulation.plan", "circuit_signature", "ir.signature"),
    ("repro.simulation.plan", "get_plan", "plan.lookup"),
    ("repro.simulation.plan", "compile_circuit", "plan.compile"),
    ("repro.execution.executor", "Executor.prepare", "execution.prepare"),
    ("repro.execution.executor", "Executor.execute", "execution"),
    ("repro.execution.dispatch", "run_plan", "dispatch"),
    ("repro.execution.dispatch", "run_sweep", "dispatch"),
    ("repro.execution.trajectory", "execute_batch", "dispatch"),
    ("repro.simulation.simulate", "simulate", "simulate"),
    ("repro.simulation.simulate", "Simulation.counts_dict",
     "simulate.sample"),
    ("repro.simulation.simulate", "Simulation.expectation",
     "simulate.expectation"),
    ("repro.simulation.sweep", "sweep", "sweep"),
    ("repro.noise.trajectory", "run_trajectories_batched", "trajectory"),
)

BACKEND_HOOKS = (
    ("apply_planned", "kernel.planned"),
    ("apply_planned_batched", "kernel.batched"),
    ("apply_planned_sweep", "kernel.sweep"),
    ("apply_batched", "kernel.apply_batched"),
)


class SpanLog:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list = []
        #: sid -> small dict of facts about that span
        self.attrs: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: job id -> (parent sid, root) of the thread that prepared it
        self._jobs: dict = {}
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name, fn, args, kwargs, parent=None, attrs=None):
        """Call ``fn`` inside a new span; returns ``(sid, result)``."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else (0, 0)
        parent_sid, root = parent
        sid = next(self._ids)
        if not root:
            root = sid
        if attrs:
            self.attrs[sid] = attrs
        stack.append((sid, root))
        t0 = perf_counter()
        try:
            return sid, fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent_sid, root, name, t0, t1))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a new root span (one benchmark call)."""
        return self._run(name, fn, args, kwargs, parent=(0, 0))[1]

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name, fn):
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return log._run(name, fn, args, kwargs)[1]

        return traced

    def _handle_wrapper(self, name, fn):
        log = self

        @functools.wraps(fn)
        def traced(gateway, method, path, body=b"", headers=None):
            bench_id = None
            for key, value in (headers or {}).items():
                if key.lower() == "x-bench-id":
                    bench_id = value
            return log._run(
                name, fn, (gateway, method, path, body, headers), {},
                parent=(0, 0), attrs={"bench_id": bench_id},
            )[1]

        return traced

    def _prepare_wrapper(self, name, fn):
        log = self

        @functools.wraps(fn)
        def traced(executor, request):
            job = fn(executor, request)
            stack = log._stack()
            log._jobs[job.id] = stack[-1] if stack else (0, 0)
            return job

        return traced

    def _execute_wrapper(self, name, fn):
        log = self

        @functools.wraps(fn)
        def traced(executor, job):
            parent = log._jobs.pop(job.id, None)
            return log._run(
                name, fn, (executor, job), {}, parent=parent,
                attrs={"submitted_at": job.timings.submitted_at},
            )[1]

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> "SpanLog":
        """Wrap every entry point in :data:`TARGETS` and the backend
        hooks of every backend class."""
        special = {
            "Gateway.handle": self._handle_wrapper,
            "Executor.prepare": self._prepare_wrapper,
            "Executor.execute": self._execute_wrapper,
        }
        for modname, qualname, name in TARGETS:
            module = importlib.import_module(modname)
            make = special.get(qualname, self._wrapper)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, make(name, cls.__dict__[attr]))
                continue
            orig = getattr(module, qualname)
            wrapped = make(name, orig)
            # ``from x import f`` copies the name: rebind every copy
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapped)
        from repro.simulation.backends import Backend

        classes, todo = [], [Backend]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for attr, name in BACKEND_HOOKS:
                if attr in cls.__dict__:
                    self._patch(
                        cls, attr, self._wrapper(name, cls.__dict__[attr])
                    )
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans and their attributes as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "attrs": {str(k): v for k, v in self.attrs.items()},
                },
                fh,
            )


def load(path):
    """Read a :meth:`SpanLog.dump` file back: ``(spans, attrs)``."""
    with open(path) as fh:
        data = json.load(fh)
    spans = [tuple(s) for s in data["spans"]]
    attrs = {int(k): v for k, v in data["attrs"].items()}
    return spans, attrs


def call_metrics(spans):
    """Layer numbers of an in-process traced run whose benchmark calls
    are ``"call"`` root spans: plan lookup and signature cost per
    call, signature calls per benchmark call, and coverage of the call
    spans by the program's spans."""
    roots = [s for s in spans if s[3] == "call"]
    # spans outside a benchmark call (output checks) are left out
    call_ids = {s[0] for s in roots}
    inner = [s for s in spans if s[3] != "call" and s[2] in call_ids]
    totals = stats.per_name(inner)
    wall = sum(e - s for _i, _p, _r, _n, s, e in roots)
    return {
        "plan.lookup_ms": stats.mean_self_ms(totals, "plan.lookup"),
        "ir.signature_ms": stats.mean_self_ms(totals, "ir.signature"),
        "ir.signature_calls_per_request": (
            totals.get("ir.signature", (0.0, 0))[1] / max(1, len(roots))
        ),
        "trace.coverage": stats.coverage(inner, wall),
    }
