"""perfbench's tracer finds privcache's functions by module and name.

`perfbench/tracing.py` wraps each of its `TARGETS` where callers look it
up and reports the ones it cannot resolve as `trace.absent_targets`.  The
file is read here as it is, never edited: the set of targets it cannot
resolve must stay the one below, so a rename or a call that bypasses a
module attribute shows up as a failing test, not as a silent zero in a
traced benchmark run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import privcache as pc

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# targets of layers the package no longer has (subset objects, per-signal
# and per-segment formulas, the histogram class), absent since before the
# column kernel
ABSENT = {
    "privcache.combinat.enumerate_r_subsets",
    "privcache.combinat.subset_rank",
    "privcache.combinat.SubsetIndex.__init__",
    "privcache.yma.compute_y",
    "privcache.yma.reconstruct_y",
    "privcache.scheme.x_segment",
    "privcache.scheme.FileLibrary.subfile",
    "privcache.scheme.recover_segment",
    "privcache.verify.OutcomeHistogram.from_weights",
    "privcache.tradeoff.tightness_report",  # the Fraction view of the curves, which no command called
    "privcache.tradeoff.lower_convex_envelope",
}


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_resolves_every_target_but_the_known_absent_ones(tracing):
    targets = {(module, path) for _, module, path, _, _ in tracing.TARGETS}
    absent = {f"{module}.{path}" for module, path in targets if tracing._resolve(module, path) is None}
    assert absent == ABSENT


def test_the_traced_session_functions_see_every_call(tracing):
    # the benchmark calls the session through the package namespace, as
    # here; `place` calls `yma.yma_delivery` once per user and
    # `assemble_delivery` calls `build_delivery` once per round, through the
    # module attributes the tracer patches
    params = pc.SchemeParams.minimal(3, 3, 2, 8)
    files = pc.FileLibrary.random(params, random.Random(4))
    rand = pc.SessionRandomness.from_seed(params, 4)
    demands = (2, 0, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        caches = pc.place(files, params, rand)
        x = pc.assemble_delivery(files, pc.aux_demand(demands, rand.keys, 3), rand)
        decoded = [pc.decode(caches[u], x, u, demands[u]) for u in range(3)]
    finally:
        tracer.uninstall()
    assert decoded == [files.files[d] for d in demands]
    assert sorted(tracer.absent) == sorted(ABSENT)
    calls = {name: tracer.calls[i] for i, name in enumerate(tracer.names)}
    assert calls["scheme.place"] == 1
    assert calls["yma.yma_delivery"] == 3
    assert calls["scheme.build_delivery"] == 1
    assert calls["scheme.decode"] == 3
