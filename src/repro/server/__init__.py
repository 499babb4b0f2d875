"""The resident query service (DESIGN.md §8).

Everything the engine amortizes *within* a process — the CSR snapshot, the
compile cache, the metrics registry — was still being rebuilt per CLI
invocation.  This package keeps them resident behind a small asyncio
service:

* :mod:`repro.server.protocol` — the JSON-lines request/response protocol
  with typed error envelopes;
* :mod:`repro.server.service` — :class:`GraphCatalog` (named, versioned
  graphs) and :class:`QueryService` (worker-pool execution with a
  version-keyed LRU answer cache);
* :mod:`repro.server.admission` — concurrency/queue/timeout/size limits;
* :mod:`repro.server.app` — the asyncio TCP server + HTTP façade with
  signal-driven graceful drain;
* :mod:`repro.server.client` — the blocking client used by tests, the CLI
  and ``benchmarks/bench_server.py``.
"""
