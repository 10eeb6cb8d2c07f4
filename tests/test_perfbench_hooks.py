"""Contract test: the benchmark's tracer hooks sit on the serve path.

``perfbench/serve_bench.py`` wraps the request path's layer boundaries
(``Tenant.admit``/``flush``, the policy and live guard wrappers, the
guard's ``check_batch``/``rectify``, ``CompiledProgram.run_codes``) in
spans for its traced runs, and attributes each layer's busy time to
them.  The benchmark's own smoke tests take minutes, so this drives one
in-memory tenant through a ``check`` and a ``rectify``, and one flush
wider than the guard's probe crossover (so the kernel, and with it
``run_codes``, runs), with the same hooks installed and asserts that
every one of them fired: a refactor that moves a hooked method off the
served path fails here.  The test only reads ``perfbench/``.
"""

import asyncio
from pathlib import Path

from repro.dsl import Branch, Condition, Program, Statement
from repro.errors.stream import _PROBE_MAX_ROWS
from repro.serve import GuardServer, TenantConfig
from repro.synth import Guardrail

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

HOOKS = (
    "serve.admit",
    "serve.flush",
    "resilience.policy",
    "resilience.live",
    "errors.batch_check",
    "errors.rectify",
    "dsl.run_codes",
)


def _guardrail() -> Guardrail:
    branches = (Branch(Condition.of(PostalCode="94704"), "City", "Berkeley"),)
    return Guardrail.from_program(
        Program((Statement(("PostalCode",), "City", branches),))
    )


def test_serve_path_fires_every_benchmark_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import serve_bench
    from tracer import Tracer

    # Small batches take the guard's per-row probes, so only a flush
    # wider than the crossover reaches the kernel: tenant "wide" gets
    # one, filled to max_batch by that many concurrent checks.
    wide = _PROBE_MAX_ROWS + 1
    server = GuardServer()
    server.register("a", _guardrail(), TenantConfig(max_wait_ms=0.5))
    server.register(
        "wide", _guardrail(), TenantConfig(max_batch=wide, max_wait_ms=5000)
    )
    row = {"PostalCode": "94704", "City": "Oakland"}

    async def drive():
        async with server:
            checked = await server.check("a", row)
            repaired = await server.rectify("a", row)
            flushed = await asyncio.gather(
                *(server.check("wide", row) for _ in range(wide))
            )
        return checked, repaired, flushed

    tracer = Tracer(enabled=True)
    try:
        serve_bench._instrument(tracer)
        tracer.start()
        checked, repaired, flushed = asyncio.run(drive())
        tracer.stop()
        assert not checked.verdict.ok
        assert repaired.row["City"] == "Berkeley"
        assert all(not response.verdict.ok for response in flushed)
        assert server.tenant("wide").metrics.batches == 1
        silent = [name for name in HOOKS if tracer.calls(name) == 0]
        assert not silent, f"hooks never fired on the serve path: {silent}"
    finally:
        tracer.close()
