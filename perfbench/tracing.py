"""Traced replay of a workload's commands through ``escatter.cli`` in this
process, and the per-layer metrics derived from the spans.

The replay calls ``escatter.cli.main`` with the same arguments the CLI
process got, so the rows go through the CLI's own row code, thread pool
and rendering.  Spans are recorded from this file only: while a
:class:`Tracer` is installed, the traced library functions are replaced by
timing wrappers in every ``escatter`` module that binds them (the CLI's
imported names included), and restored afterwards.  Nothing under
``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import statistics
import threading
import time

import numpy as np

from escatter import cli, density_matrix, entropy, geometry, spin
from escatter.amplitudes import SpinChannel
from escatter.kinematics import make_context

from workloads import K_SCALE, Command

#: Modules whose bindings of a traced function are replaced.
MODULES = (geometry, entropy, spin, density_matrix, cli)


def _cells(args) -> dict:
    return {"cells": len(args[0]) - 1}


def _channel(args) -> dict:
    return {"channel": args[2].value}


def _nnz(args, dm) -> dict:
    return {"nnz": int(np.count_nonzero(dm.rho))}


#: (home module, function, span name, attributes known before the call,
#: attributes taken from the result outside the timed interval)
TRACED = (
    (geometry, "channel_cell_integrals", "geometry.cell_integrals", _cells, None),
    (geometry, "direct_exchange_cell_integrals", "geometry.cell_integrals",
     _cells, None),
    (entropy, "_stream_weight_entropy", "entropy.reduce", _channel, None),
    (entropy, "shannon_ring_discrete", "entropy.ring", None, None),
    (entropy, "shannon_sphere_discrete", "entropy.sphere", None, None),
    (entropy, "shannon_ring_jaynes", "entropy.jaynes", None, None),
    (entropy, "shannon_sphere_jaynes", "entropy.jaynes", None, None),
    (spin, "postselect_entropies", "spin.postselect_row", None, None),
    (density_matrix, "build_meridian_matrix", "density_matrix.build", None, _nnz),
    (density_matrix, "eigen_spectrum", "density_matrix.eigen", None, None),
)
#: (home module, function, counter): calls are counted on the innermost
#: open span of the calling thread, without a span of their own.
COUNTED = ((density_matrix, "kernel_element", "kernel_calls"),)


class Tracer:
    """In-memory spans: name, start, end, parent, row id and attributes.

    The parent of a span is the innermost open span of the same thread,
    unless given explicitly (rows run on pool threads under the command
    span of the main thread).  A span opened with ``row_id`` passes it on
    to the spans opened inside it on the same thread, so all spans of one
    table row share it.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> dict | None:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None,
             row_id: str | None = None, **attrs):
        outer = self.current()
        record = {"id": next(self._ids), "name": name,
                  "parent": parent if parent is not None else (outer and outer["id"]),
                  "row_id": row_id or (outer and outer["row_id"]),
                  "thread": threading.get_ident(), **attrs}
        stack = self._stack()
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn, attrs=None, after=None, **fixed):
        """A pass-through wrapper of ``fn`` that records one span per call.

        ``attrs(args)`` adds attributes known before the call,
        ``after(args, result)`` counts taken from the result outside the
        timed interval.  A call made inside an open span of the same name
        belongs to that span and records none of its own
        (``channel_cell_integrals`` calls ``direct_exchange_cell_integrals``)."""
        def wrapper(*args, **kwargs):
            outer = self.current()
            if outer is not None and outer["name"] == name:
                return fn(*args, **kwargs)
            with self.span(name, **fixed, **(attrs(args) if attrs else {})) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                record.update(after(args, result))
            return result
        return wrapper

    def count(self, key: str, fn):
        """A pass-through wrapper of ``fn`` that adds one to ``key`` of the
        innermost open span of the calling thread."""
        def wrapper(*args, **kwargs):
            record = self.current()
            if record is not None:
                record[key] = record.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _map_rows(self, map_ordered):
        """``cli._map_ordered`` with one ``cli.row`` span per row, under the
        ``cli.command`` span that is open on the calling thread."""
        def wrapper(fn, items, threads):
            command = self.current()

            def row(indexed):
                index, item = indexed
                with self.span("cli.row", parent=command["id"],
                               row_id=f"{command['row_id']}:{index}"):
                    return fn(item)
            return map_ordered(row, list(enumerate(items)), threads)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced module bindings for the duration of the block."""
        replacements = []
        for home, attr, name, attrs, after in TRACED:
            fn = getattr(home, attr)
            replacements += [(module, attr, self.wrap(name, fn, attrs, after,
                                                      module=module.__name__))
                             for module in MODULES if getattr(module, attr, None) is fn]
        for home, attr, key in COUNTED:
            fn = getattr(home, attr)
            replacements += [(module, attr, self.count(key, fn))
                             for module in MODULES if getattr(module, attr, None) is fn]
        replacements.append((cli, "_map_ordered", self._map_rows(cli._map_ordered)))
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in replacements]
        try:
            for module, attr, wrapper in replacements:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay(workload: str, commands: list[Command],
           tracer: Tracer | None = None) -> list[tuple[int, str]]:
    """Run every command through ``escatter.cli.main`` in this process and
    return its exit code and the table it printed.  With a tracer, each
    command runs under a ``cli.command`` span."""
    outputs = []
    for command in commands:
        span = (tracer.span("cli.command", row_id=f"{workload}:{command.name}",
                            command=command.name)
                if tracer is not None else contextlib.nullcontext())
        buffer = io.StringIO()
        with span, contextlib.redirect_stdout(buffer):
            code = cli.main(command.argv())
        outputs.append((code, buffer.getvalue()))
    return outputs


def warm_up_commands(commands: list[Command]) -> list[Command]:
    """Each command cut to its smallest row, so that first-call costs are
    paid before the timed replays."""
    return [dataclasses.replace(c, energies=(min(c.energies),),
                                theta_r=(min(c.theta_r),) if c.theta_r else ())
            for c in commands]


def jaynes_points(commands: list[Command]) -> list:
    """Continuous-limit calls at the workload's working points: the sphere
    form for sphere rows, the ring form of the row's channels otherwise."""
    calls = []
    for command in commands:
        channels = ((SpinChannel.PARALLEL, SpinChannel.ANTIPARALLEL)
                    if command.name == "spin-sweep" else (SpinChannel.SPINLESS,))
        for e_ev in sorted(set(command.energies)):
            ctx = make_context(e_ev, command.packet_nm, K_SCALE)
            if command.name == "sphere-sweep":
                calls.append(lambda c=ctx: entropy.shannon_sphere_jaynes(c))
                continue
            for channel in channels:
                calls.append(lambda c=ctx, ch=channel, n=command.n_grid:
                             entropy.shannon_ring_jaynes(c, ch, n_cells=n))
    return calls


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer sums over the spans of one traced replay.

    Times are busy times summed over threads, so with two workers a
    layer's total can exceed the table's wall time."""
    by_name: dict[str, list] = {}
    children: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["name"] == "geometry.cell_integrals" and s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)

    def total(name, keep=lambda s: True) -> float:
        return sum((_dur(s) for s in by_name.get(name, ()) if keep(s)), 0.0)

    def spin_reduce(channel: SpinChannel):
        return lambda s: (s["module"] == spin.__name__
                          and s["channel"] == channel.value)

    geo = by_name.get("geometry.cell_integrals", [])
    cells = sum(s["cells"] for s in geo)
    geo_s = total("geometry.cell_integrals")
    reducers = by_name.get("entropy.reduce", []) + by_name.get("entropy.sphere", [])
    rows = [_dur(s) for s in by_name.get("spin.postselect_row", [])]
    builds = by_name.get("density_matrix.build", [])
    kernel_calls = sum(s.get("kernel_calls", 0) for s in builds)
    build_s = total("density_matrix.build")
    jaynes = [_dur(s) for s in by_name.get("entropy.jaynes_pass", ())]
    return {
        "geometry.cells": cells,
        "geometry.cell_integrals_s": geo_s,
        "geometry.cells_per_s": cells / geo_s if geo_s > 0.0 else 0.0,
        "entropy.ring_s": total("entropy.ring"),
        "entropy.sphere_s": total("entropy.sphere"),
        "entropy.reduce_self_s": sum(_dur(s) - children.get(s["id"], 0.0)
                                     for s in reducers),
        "entropy.jaynes_s": statistics.median(jaynes) if jaynes else 0.0,
        "spin.parallel_s": total("entropy.reduce", spin_reduce(SpinChannel.PARALLEL)),
        "spin.antiparallel_s": total("entropy.reduce",
                                     spin_reduce(SpinChannel.ANTIPARALLEL)),
        "spin.postselect_row_max_s": max(rows, default=0.0),
        "spin.postselect_row_sum_s": sum(rows, 0.0),
        "density_matrix.kernel_calls": kernel_calls,
        "density_matrix.kernel_element_us": (1e6 * build_s / kernel_calls
                                             if kernel_calls else 0.0),
        "density_matrix.build_s": build_s,
        "density_matrix.eigen_s": total("density_matrix.eigen"),
        "density_matrix.nnz": sum(s.get("nnz", 0) for s in builds),
        "slowest_row_s": max((_dur(s) for s in by_name.get("cli.row", ())),
                             default=0.0),
    }
