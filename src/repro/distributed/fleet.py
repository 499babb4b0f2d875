"""The self-healing fleet: heartbeat probes, supervised restart, re-seeding.

DESIGN.md §14.  PR 7's :class:`~repro.distributed.coordinator.ShardLauncher`
spawns workers and reaps them at shutdown, but a worker that dies *mid-run*
just stays dead: every query touching it raises ``shard_unavailable`` until
a human intervenes.  :class:`FleetSupervisor` closes that loop:

1. **Probe** — a background thread sends the cheap ``health`` control op to
   every worker each ``heartbeat_interval`` seconds over a fresh,
   short-timeout connection (a wedged worker that accepts connections but
   answers nothing still registers as a miss within ``probe_timeout``).  A
   worker whose process has already exited is declared dead immediately —
   no need to wait out ``miss_threshold`` probes on a corpse.
2. **Restart** — after ``miss_threshold`` consecutive misses the worker is
   killed (if still wedged) and respawned **on its originally-announced
   port** (``ShardLauncher.respawn``), so coordinator address lists stay
   valid.  Respawns back off exponentially and are budgeted: more than
   ``max_restarts`` inside ``restart_window`` seconds flips the shard to
   ``failed`` — a crash-looping worker must not be restarted forever — but
   probing continues, and a shard that heals externally is re-adopted.
3. **Re-seed** — a reborn worker has an empty (or durable-snapshot) catalog.
   The supervisor replays the coordinator-retained copy of the shard's
   partition slice or replica set (``record_seed``), *skipping* any graph
   the worker already reports at the last-known durable version — a worker
   launched with ``--data-dir`` reloads its catalog from SQLite, so its
   restart costs one ``health`` round-trip of verification instead of a
   re-upload (DESIGN.md §13 makes restart nearly free).

The supervisor never touches query execution: exactness stays with the
coordinator (typed errors, breakers, hedging).  Its job is only to make
``shard_unavailable`` a transient condition.

Thread model: one prober thread per supervisor; every state mutation holds
``_lock``.  Tests drive :meth:`probe_once` directly (no thread, no clock
races) — the ``fleet.probe`` fault site makes a healthy worker look dead
without killing real processes.
"""

from __future__ import annotations

import threading
import time

from repro.engine.faults import fault_point
from repro.server.client import ConnectionLost, ServerClient, ServerError

#: Per-shard supervisor states.
HEALTHY = "healthy"
SUSPECT = "suspect"      # at least one missed probe, below the threshold
DOWN = "down"            # declared dead; restart pending or in progress
FAILED = "failed"        # restart budget exhausted; left down on purpose

#: Shard-side error codes a probe treats as "this worker is not serving".
_PROBE_DOWN_CODES = frozenset({"internal", "shutting_down"})


class _ShardState:
    __slots__ = (
        "state", "misses", "restarts", "last_probe", "last_error",
        "last_graphs", "probes_total", "misses_total",
    )

    def __init__(self):
        self.state = HEALTHY
        self.misses = 0
        self.restarts: list[float] = []  # monotonic timestamps, pruned
        self.last_probe: "float | None" = None
        self.last_error: "str | None" = None
        #: the last health-reported ``{name: [generation, version]}`` — the
        #: baseline restart verification compares against.
        self.last_graphs: dict = {}
        self.probes_total = 0
        self.misses_total = 0


class FleetSupervisor:
    """Keep a :class:`ShardLauncher` fleet alive through worker deaths."""

    def __init__(
        self,
        launcher,
        *,
        heartbeat_interval: float = 1.0,
        probe_timeout: float = 2.0,
        miss_threshold: int = 3,
        max_restarts: int = 3,
        restart_window: float = 60.0,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        on_restart=None,
        clock=time.monotonic,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        self.launcher = launcher
        self.heartbeat_interval = heartbeat_interval
        self.probe_timeout = probe_timeout
        self.miss_threshold = miss_threshold
        self.max_restarts = max_restarts
        self.restart_window = restart_window
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: ``on_restart(shard, (host, port))`` fires after a successful
        #: respawn + re-seed — coordinators use it to reset the shard's
        #: breaker and retire its (dead) client connection.
        self.on_restart = on_restart
        self._clock = clock
        self._lock = threading.Lock()
        self._states: dict[int, _ShardState] = {}
        self._seeds: dict[int, dict[str, dict]] = {}
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        #: append-only event log (dicts), for tests and status displays.
        self.events: list[dict] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, *, spawn_thread: bool = True) -> list[tuple[str, int]]:
        """Start the fleet (if not already up) and the prober thread."""
        addresses = self.launcher.start()
        with self._lock:
            for shard in range(self.launcher.num_shards):
                self._states.setdefault(shard, _ShardState())
        if spawn_thread and self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-fleet-prober", daemon=True
            )
            self._thread.start()
        return addresses

    def stop(self, timeout: float = 15.0) -> None:
        """Stop probing, then SIGTERM the fleet (graceful drain)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.launcher.stop(timeout=timeout)

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # seed registry (what a reborn worker must be re-taught)
    # ------------------------------------------------------------------
    def record_seed(self, shard: int, name: str, document: dict) -> None:
        """Retain ``document`` as shard ``shard``'s copy of graph ``name``.

        Coordinators call this from ``partition_graph`` (per-shard slices)
        and ``replicate_graph`` (full replicas); re-seeding replays exactly
        these documents.  Re-recording a name replaces the retained copy.
        """
        with self._lock:
            self._seeds.setdefault(shard, {})[name] = document

    def seeds(self, shard: int) -> dict:
        with self._lock:
            return dict(self._seeds.get(shard, {}))

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """A JSON-ready snapshot of every shard's supervisor state."""
        with self._lock:
            shards = {}
            for shard, state in sorted(self._states.items()):
                shards[shard] = {
                    "state": state.state,
                    "misses": state.misses,
                    "restarts": len(state.restarts),
                    "probes_total": state.probes_total,
                    "misses_total": state.misses_total,
                    "last_error": state.last_error,
                }
            return {
                "shards": shards,
                "heartbeat_interval": self.heartbeat_interval,
                "miss_threshold": self.miss_threshold,
                "max_restarts": self.max_restarts,
                "events": len(self.events),
            }

    def healthy(self) -> bool:
        with self._lock:
            return bool(self._states) and all(
                state.state == HEALTHY for state in self._states.values()
            )

    # ------------------------------------------------------------------
    # the probe loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.probe_once()
            except Exception as exc:  # noqa: BLE001 - prober must survive
                self._event("prober_error", shard=None, error=repr(exc))

    def probe_once(self) -> dict:
        """One probe sweep over every shard; returns ``{shard: state}``.

        Public so tests (and the recovery bench) can drive supervision
        deterministically without the background thread.
        """
        results = {}
        for shard in range(self.launcher.num_shards):
            results[shard] = self._probe_shard(shard)
        return results

    def _probe_shard(self, shard: int) -> str:
        state = self._states[shard]
        state.probes_total += 1
        state.last_probe = self._clock()
        # A reaped process needs no miss window: it is dead now.
        exited = self.launcher.poll(shard) is not None
        health = None
        if not exited:
            try:
                fault_point("fleet.probe")
                health = self._probe(shard)
            except (ConnectionLost, OSError, ServerError, Exception) as exc:
                state.last_error = repr(exc)
        if health is not None:
            with self._lock:
                was = state.state
                state.state = HEALTHY
                state.misses = 0
                state.last_error = None
                state.last_graphs = dict(health.get("graphs") or {})
            if was in (DOWN, FAILED):
                # Healed without our help (manual restart, network blip
                # outlasting the budget): adopt it and forget the grudge.
                self._event("readopted", shard=shard)
                with self._lock:
                    state.restarts.clear()
            return HEALTHY
        with self._lock:
            state.misses += 1
            state.misses_total += 1
            misses = state.misses
            if exited:
                misses = self.miss_threshold  # no point waiting
                state.last_error = "worker process exited"
            dead = misses >= self.miss_threshold
            state.state = DOWN if dead else SUSPECT
        self._event(
            "probe_missed", shard=shard, misses=misses,
            exited=exited, error=state.last_error,
        )
        if dead:
            self._restart(shard)
        return self._states[shard].state

    def _probe(self, shard: int) -> dict:
        """One health round-trip on a fresh, short-timeout connection.

        A fresh connection per probe costs one TCP handshake but cannot
        inherit a wedged stream, and a worker restarted behind our back
        never leaves the prober holding a socket to the old process.
        """
        host, port = self.launcher.addresses[shard]
        client = ServerClient(
            host, port,
            timeout=self.probe_timeout,
            control_timeout=self.probe_timeout,
        )
        try:
            health = client.health()
        finally:
            client.close()
        if not isinstance(health, dict) or health.get("status") not in (
            "ok", "draining"
        ):
            raise ConnectionLost(f"malformed health body: {health!r}")
        return health

    # ------------------------------------------------------------------
    # restart + re-seed
    # ------------------------------------------------------------------
    def _restart(self, shard: int) -> None:
        from repro.distributed.coordinator import ShardStartupError

        state = self._states[shard]
        now = self._clock()
        gave_up = False
        with self._lock:
            state.restarts = [
                stamp for stamp in state.restarts
                if now - stamp < self.restart_window
            ]
            exhausted = len(state.restarts) >= self.max_restarts
            if exhausted:
                if state.state != FAILED:
                    state.state = FAILED
                    gave_up = True
                budget_spent = len(state.restarts)
            else:
                attempt = len(state.restarts)
                state.restarts.append(now)
        if exhausted:
            if gave_up:  # emitted outside the (non-reentrant) lock
                self._event(
                    "gave_up", shard=shard, restarts=budget_spent,
                    window=self.restart_window,
                )
            return
        backoff = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        if backoff > 0:
            time.sleep(backoff)
        self._event("restarting", shard=shard, attempt=attempt + 1,
                    backoff=round(backoff, 3))
        try:
            address = self.launcher.respawn(shard)
        except ShardStartupError as exc:
            with self._lock:
                state.last_error = str(exc)
            self._event("restart_failed", shard=shard, error=str(exc))
            return
        try:
            reseeded = self._reseed(shard)
        except (ConnectionLost, OSError, ServerError) as exc:
            # The reborn worker died again before re-seeding finished; the
            # next probe sweep will notice and burn another restart slot.
            with self._lock:
                state.last_error = f"re-seed failed: {exc}"
            self._event("reseed_failed", shard=shard, error=str(exc))
            return
        with self._lock:
            state.state = HEALTHY
            state.misses = 0
            state.last_error = None
        self._event(
            "restarted", shard=shard, address=list(address), **reseeded
        )
        if self.on_restart is not None:
            self.on_restart(shard, address)

    def _reseed(self, shard: int) -> dict:
        """Replay the shard's retained documents, skipping durable survivors.

        Returns ``{"reseeded": [names uploaded], "verified": [names the
        worker already held at the last-known durable version]}`` — a
        ``--data-dir`` worker lands everything in ``verified``.
        """
        host, port = self.launcher.addresses[shard]
        with self._lock:
            seeds = dict(self._seeds.get(shard, {}))
            last_graphs = dict(self._states[shard].last_graphs)
        client = ServerClient(
            host, port,
            timeout=max(self.probe_timeout, 30.0),
            control_timeout=max(self.probe_timeout, 5.0),
        )
        uploaded, verified = [], []
        try:
            health = client.health()
            present = health.get("graphs") or {}
            for name, document in sorted(seeds.items()):
                if name in present and self._version_current(
                    present[name], last_graphs.get(name)
                ):
                    verified.append(name)
                    continue
                client.upload_graph(name, document)
                uploaded.append(name)
            with self._lock:
                self._states[shard].last_graphs = dict(
                    client.health().get("graphs") or {}
                ) if uploaded else dict(present)
        finally:
            client.close()
        return {"reseeded": uploaded, "verified": verified}

    @staticmethod
    def _version_current(reported, last_known) -> bool:
        """Is the reborn worker's durable version of a graph current?

        Versions on the wire are ``[catalog generation, durable version]``;
        the generation is per-process (a restart always mints new ones), so
        only the durable component is comparable across the crash.  With no
        pre-crash baseline the presence of the name is trusted — the store's
        flush-before-reply contract (§13) guarantees acked state survived.
        """
        if not isinstance(reported, (list, tuple)) or len(reported) != 2:
            return False
        if not isinstance(last_known, (list, tuple)) or len(last_known) != 2:
            return True
        return reported[1] >= last_known[1]

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _event(self, kind: str, **fields) -> None:
        record = {"event": kind, "at": round(self._clock(), 3), **fields}
        with self._lock:
            self.events.append(record)
