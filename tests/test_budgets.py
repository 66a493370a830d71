"""Budgets the code keeps, checked on every run.

* No function body anywhere under ``src/repro`` exceeds 165 lines, so
  the bodies simplicity work shrinks cannot regrow unnoticed.
* ``import repro`` leaves ``scipy.stats`` unloaded: it costs ~70 MB RSS
  and ~0.7 s, and only ``metrics.confidence_interval`` needs it, at
  call time.  Building a network and serving a ``place_many`` +
  ``retrieve_many`` round leaves ``scipy.optimize`` unloaded too: only
  a join's position solve imports it.
* The route memo holds a route in at most 80 bytes (DESIGN.md §5d,
  docs/api.md), from ``nbytes``: the same on every run.
* A join or leave patches the wave plane in place: ten join + leave
  cycles on a 200-switch plane, each event followed by a batch, build
  no plane and write at most the rows each event touched (counted,
  not timed).
* A healthy resilient batch settles in one pass: an enabled
  ``place_many`` and ``retrieve_many`` of 1,000 ids on a quiet board
  feed no breaker, derive no breaker key and hand the wrapped network
  the id list they validated; with one breaker forced open, every
  copy feeds its switch's and its server's breaker once (counted).
* A build pays for C-regulation once: a ``Controller`` built with
  ``cvt_iterations=T`` draws ``T`` sampler batches, and a direct
  ``c_regulation`` draws ``T`` more only when its ``energy_history``
  is read (counted).
* src ships only what the system runs: every top-level public ``def``
  or ``class`` under ``src/repro`` that no other module there (a
  package ``__init__``'s re-export aside) and no file under
  ``benchmarks/`` names is listed in
  ``tests/data/unreferenced_symbols.json``, the supported API kept for
  users, each with an entry in ``docs/api.md`` and importable from its
  package.  The list may only shrink: a reference implementation
  moves to ``tests/oracles/``, dead code goes.

``tools/line_budget.py`` prints the same measurements as a report.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro import GredNetwork, ResilienceConfig, brite_waxman_graph
from repro.controlplane import Controller, ControllerConfig
from repro.edge import attach_uniform
from repro.embedding import c_regulation
from repro.geometry import sample_unit_square
from repro.obs import scoped_registry
from repro.resilience import pipeline as resilient_pipeline

SRC = Path(repro.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
#: The ratchet: the longest function body allowed in any module.
LIMIT = 165
#: The other ratchet: the public symbols nothing in src or benchmarks
#: names, each a supported API entry.
ALLOWLIST = ROOT / "tests" / "data" / "unreferenced_symbols.json"


def function_bodies(paths):
    """``(lines, "path:line name")`` of every function in ``paths``."""
    return [(n.end_lineno - n.lineno + 1, f"{path}:{n.lineno} {n.name}")
            for path in paths
            for n in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def unreferenced_symbols(root=ROOT):
    """``repro.module.name`` of every top-level public ``def`` / ``class``
    under ``root/src/repro`` that no other module there names (a
    package ``__init__``'s imports are re-exports, not uses) and no
    ``root/benchmarks`` file names.  A name counts wherever it appears
    as a name, an attribute or an imported alias."""
    def names(path, imports=True):
        fields = {ast.Name: "id", ast.Attribute: "attr",
                  **({ast.alias: "name"} if imports else {})}
        return {getattr(node, fields[type(node)]).rpartition(".")[2]
                for node in ast.walk(ast.parse(path.read_text()))
                if type(node) in fields}

    src = root / "src"
    modules = sorted((src / "repro").rglob("*.py"))
    named = {path: names(path, path.name != "__init__.py")
             for path in modules}
    benchmarks = set().union(*map(names, (root / "benchmarks").rglob("*.py")))
    unused = []
    for path in modules:
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in benchmarks
                    and not any(node.name in found for other, found
                                in named.items() if other != path)):
                unused.append(f"{module.removesuffix('.__init__')}."
                              f"{node.name}")
    return sorted(unused)


def route_memo_footprint(counts=(10_000, 65_536, 70_000)):
    """``(routes, bytes allocated)`` of the route memo after one batch
    of ``count`` fresh ids from sticky entries, per count, on a
    100-switch plane (past the 65,536-route cap, with the doorkeeper
    allocated)."""
    topology, _ = brite_waxman_graph(100, min_degree=3,
                                     rng=np.random.default_rng(0))
    net = GredNetwork(topology, servers_per_switch=4, cvt_iterations=5,
                      seed=0)
    switches = net.switch_ids()
    footprint = []
    for count in counts:
        net._fastpath = None
        net.retrieve_many(
            [f"budget/{i}" for i in range(count)],
            entry_switches=[switches[i % 100] for i in range(count)])
        memo = net._fastpath.routes
        footprint.append((len(memo), memo.nbytes))
    return footprint


def plane_rows_per_event(cycles=10):
    """``(switches the event touched, wave-plane rows the next batch
    wrote)`` per join and per leave of ``cycles`` cycles on a warm
    200-switch plane, and whether the batches kept the warm-up's
    router and plane (none rebuilt)."""
    topology, _ = brite_waxman_graph(200, min_degree=3,
                                     rng=np.random.default_rng(0))
    net = GredNetwork(topology, servers_per_switch=4, cvt_iterations=5,
                      seed=0)
    switches = net.switch_ids()
    net.place_many([f"budget/{i}" for i in range(5000)])
    router = net._fastpath.router
    builds = router.plane_builds
    counts = []
    with scoped_registry() as registry:
        written = registry.counter("dataplane.plane.rows", outcome="written")
        for k in range(cycles):
            links = [switches[(37 * k + step) % 200] for step in (0, 5, 11)]
            for event in (lambda: net.add_switch(1000 + k, links, 4),
                          lambda: net.remove_switch(1000 + k)):
                version, before = net.controller.version, written.value
                event()
                touched = net.controller.changes_since(version)
                net.retrieve_many([f"fresh/{version}/{i}" for i in range(500)])
                counts.append((len(touched), written.value - before))
    kept = net._fastpath.router is router and router.plane_builds == builds
    return counts, kept


def resilient_feeds(count=1_000):
    """``(board, successes, failures, breaker keys derived, wrapped
    network handed the validated id list)`` of an enabled
    ``place_many`` then ``retrieve_many`` of ``count`` ids from spread
    entries on a 40-switch network: on a quiet board, on a loud one
    (one unrelated failure counted, no breaker tripped) and with that
    unrelated breaker forced open (the last field ``None`` when no
    batch reached the wrapped network's batch call)."""
    topology, _ = brite_waxman_graph(40, min_degree=3,
                                     rng=np.random.default_rng(0))
    net = GredNetwork(topology, servers_per_switch=2, cvt_iterations=5,
                      seed=0)
    pipeline = net.resilient(ResilienceConfig(enabled=True))
    calls, validated = [], []

    def count_calls(owner, name):
        call = getattr(owner, name)
        setattr(owner, name, lambda first, *args, **kwargs: (
            calls.append((name, first)) or call(first, *args, **kwargs)))

    for owner, name in ((pipeline.breakers, "success"),
                        (pipeline.breakers, "failure"),
                        (pipeline, "_breaker_keys"),
                        (net, "place_many"), (net, "retrieve_many")):
        count_calls(owner, name)
    check = resilient_pipeline.check_batch_args
    resilient_pipeline.check_batch_args = lambda *args: (
        validated.append(check(*args)) or validated[-1])
    ids = [f"resilient/{i}" for i in range(count)]
    entries = [net.switch_ids()[i % 40] for i in range(count)]
    rows = []
    try:
        for board, now in (("quiet", 0.0), ("loud", 5.0), ("forced", 10.0)):
            if board == "loud":  # one failure, below the threshold
                pipeline.breakers.failure(("switch", 999), now)
            elif board == "forced":
                pipeline.breakers.force_open(("switch", 999), now)
            calls.clear()
            validated.clear()
            assert all(o.ok for o in pipeline.place_many(
                ids, entry_switches=entries, now=now))
            assert all(o.ok for o in pipeline.retrieve_many(
                ids, entry_switches=entries, now=now + 1.0))
            names = [name for name, _ in calls]
            handed = [first for name, first in calls
                      if name.endswith("_many")]
            rows.append((board, names.count("success"),
                         names.count("failure"),
                         names.count("_breaker_keys"),
                         [got is args[0] for got, args
                          in zip(handed, validated)] or None))
    finally:
        resilient_pipeline.check_batch_args = check
    return rows


def sampler_batches(iterations=8):
    """``(build, run, read)``: the sampler batches a 40-switch
    ``Controller`` build with ``cvt_iterations=iterations`` draws, then
    those of a direct ``c_regulation`` run, and those its first
    ``energy_history`` read adds."""
    calls = []

    def counted(k, rng):
        calls.append(k)
        return sample_unit_square(k, rng)

    topology, _ = brite_waxman_graph(40, min_degree=3,
                                     rng=np.random.default_rng(0))
    Controller(topology, attach_uniform(topology.nodes(), 2),
               ControllerConfig(cvt_iterations=iterations,
                                density_sampler=counted))
    build = len(calls)
    result = c_regulation([(0.2, 0.3), (0.6, 0.7)], iterations=iterations,
                          sampler=counted)
    run = len(calls) - build
    assert len(result.energy_history) == iterations
    return build, run, len(calls) - build - run


def test_no_function_body_over_the_limit():
    long = [(lines, where) for lines, where in function_bodies(
        sorted(map(str, SRC.rglob("*.py")))) if lines > LIMIT]
    assert long == [], f"function bodies over {LIMIT} lines"


def allowlist():
    """The allowlist's ``repro.module.name`` entries, sorted."""
    return sorted(f"{module}.{name}" for module, names
                  in json.loads(ALLOWLIST.read_text()).items()
                  for name in names)


def test_unreferenced_symbols_are_the_allowlist():
    assert unreferenced_symbols() == allowlist(), (
        "a public symbol nothing in src or benchmarks names: move an "
        "oracle to tests/oracles/, delete dead code, or document a "
        "supported API (docs/api.md) and list it here")


def test_the_allowlist_is_documented_public_api():
    code = " ".join(re.findall(r"`[^`]+`", (ROOT / "docs" / "api.md")
                               .read_text()))
    undocumented = []
    for entry in allowlist():
        module, _, name = entry.rpartition(".")
        assert hasattr(importlib.import_module(module), name), entry
        if not re.search(rf"\b{name}\b", code):
            undocumented.append(entry)
    assert undocumented == []


def test_import_keeps_scipy_stats_lazy():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; assert 'scipy.stats' not in sys.modules"],
        check=True, env=env)


def test_import_keeps_scipy_optimize_lazy():
    """Serving requests loads no solver: only a join's position solve
    imports ``scipy.optimize``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, "-c", """if True:
        import sys
        import numpy as np
        import repro
        from repro import GredNetwork, brite_waxman_graph
        topology, _ = brite_waxman_graph(20, rng=np.random.default_rng(1))
        net = GredNetwork(topology, servers_per_switch=2, cvt_iterations=2,
                          seed=1)
        ids = [f"item-{i}" for i in range(200)]
        net.place_many(ids, payloads=ids)
        assert all(r.found for r in net.retrieve_many(ids))
        assert 'scipy.optimize' not in sys.modules
        net.add_switch(99, links=[0, 1], servers_per_switch=2)
        assert 'scipy.optimize' in sys.modules
        """], check=True, env=env)


def test_route_memo_stays_under_80_bytes_a_route():
    footprint = route_memo_footprint()
    assert [routes for routes, _ in footprint] == [10_000, 65_536, 65_536]
    assert footprint[2][1] - footprint[1][1] == 128 * 1024  # the bitset
    assert all(nbytes <= 80 * routes for routes, nbytes in footprint), \
        footprint


def test_an_event_rewrites_only_the_rows_it_touched():
    counts, kept = plane_rows_per_event()
    assert kept, "a join or leave rebuilt the wave plane"
    assert all(0 < rows <= touched for touched, rows in counts), counts


def test_a_healthy_resilient_batch_settles_in_one_pass():
    quiet, loud, forced = resilient_feeds()
    assert quiet == ("quiet", 0, 0, 0, [True, True]), quiet
    # One copy a request, feeding its switch's and its server's breaker
    # once on the placement and once on the retrieval: from the settle
    # sweep of the batch on a loud board, from the scalar path per item
    # on a tripped one.
    assert loud == ("loud", 2 * 2 * 1_000, 0, 0, [True, True]), loud
    assert forced[:3] + forced[4:] == ("forced", 2 * 2 * 1_000, 0, None), \
        forced


def test_a_build_draws_one_sampler_batch_an_iteration():
    assert sampler_batches(8) == (8, 8, 8)
