"""Run ``repro.cli`` in-process with spans around each layer's entry points.

Usage::

    PYTHONPATH=src python perfbench/launcher.py --spans OUT.json -- serve ...

Each patched function is replaced, where its callers look it up, by a
wrapper that records one span: name, start, end, the enclosing span on
the same thread (its parent) and the request id the thread is serving.
Spans stay in memory until the CLI returns, then go to ``OUT.json``
with the list of entry points that could not be patched (a later
refactor may rename one; ``run.py`` then fails the traced run).

The queue wait between admission and the start of serving crosses
threads; it is not a span here but comes from the daemon's own
``queue_wait_s`` histogram in ``stats``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import threading
import time

#: (module where callers look the name up, attribute path, span name).
#: The layer of a span is its name without the last component.
PATCHES = (
    ("repro.service.server", "decode", "service.protocol.decode"),
    ("repro.service.server", "encode", "service.protocol.encode"),
    ("repro.service.daemon", "SelectionService._execute_batch", "service.daemon.batch"),
    ("repro.service.daemon", "SelectionService._serve_one", "service.daemon.request"),
    ("repro.service.daemon", "SelectionService.commit_ring", "service.daemon.commit"),
    ("repro.service.daemon", "bfs_select", "core.bfs.select"),
    ("repro.service.daemon", "ladder_select", "resilience.ladder.select"),
    ("repro.resilience.ladder", "bfs_select", "core.bfs.select"),
    ("repro.resilience.ladder", "verify_ring", "resilience.ladder.verify"),
    ("repro.core.bfs", "prefilter_chunk", "core.perf.kernels.prefilter"),
    ("repro.core.perf.cache", "SolverCache.base_worlds", "core.perf.cache.base_worlds"),
    ("repro.core.perf.cache", "SolverCache.advance", "core.perf.cache.advance"),
    ("repro.core.modules", "ModuleUniverse.__init__", "core.modules.build"),
    ("repro.core.modules", "ModuleUniverse.extended", "core.modules.extended"),
    ("repro.service.state", "ServiceState.commit", "service.state.commit"),
    ("repro.service.state", "ChainSnapshot.advance", "service.state.advance"),
    ("repro.service.state", "ChainSnapshot.solve_view", "service.state.solve_view"),
    ("repro.service.partition", "TokenPartition.rings_of", "service.partition.rings_of"),
    ("repro.service.journal", "Journal.append_commit", "service.journal.append"),
    ("repro.service.journal", "Journal.write_snapshot", "service.journal.snapshot"),
    ("repro.service.journal", "Journal.recover", "service.journal.recover"),
)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, request, t0, t1)
        self.unpatched: list[str] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            tracer._enter(name, args)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == "service.protocol.decode" and isinstance(result, dict):
                    tracer._local.request = result.get("id")
                tracer.spans.append(
                    (span_id, parent, name, getattr(tracer._local, "request", None),
                     start, end)
                )

        return traced

    # Request identity, from the arguments that carry it.

    def _enter(self, name: str, args: tuple) -> None:
        if name == "service.daemon.batch":
            self._local.request = None
        elif name == "service.daemon.request":
            self._local.request = args[1].request_id
        elif name == "service.protocol.encode":
            self._local.request = args[0].get("id")

    def install(self) -> None:
        for module_name, path, span_name in PATCHES:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.unpatched.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span_name, original))

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(
                {"spans": self.spans, "unpatched": self.unpatched},
                out,
            )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
