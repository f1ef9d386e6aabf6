"""The delta-server: the engine that makes dynamic traffic cachable.

"Call a *delta-server* an engine that implements class-based delta-encoding
and services the contents of some web-servers.  All requests are processed
by the delta-server before they are forwarded to the web-servers."
(Section III.)  Deployment-wise it sits next to the origin (Fig. 2) and is
transparent to clients, proxies, and the web-server.

Per request the engine:

1. fetches the current document snapshot from the origin;
2. groups the request into a document class (:mod:`repro.core.grouping`);
3. feeds the document to the class's base-file selection policy and to any
   pending anonymization;
4. applies rebase policy (group-rebase on timeout + better candidate,
   basic-rebase on persistently large deltas);
5. answers with a compressed delta when the client holds the class's
   current distributable base-file, and with the full document otherwise
   (tagging the response with the class reference so the client can fetch
   the — cachable — base-file for next time).

Base-files are served at synthetic URLs
``<server>/__delta_base__/<class_id>/<version>`` and marked cachable, so
ordinary proxy-caches absorb base-file distribution (Section VI-B's point
that "anonymized base files are cachable ... the gain from cachable
base-files is expected to be larger than the loss from slightly larger
deltas").

Concurrency — the sharded engine
--------------------------------

The pipeline is one coroutine, :meth:`DeltaServer.serve`, whose only
``await`` is the origin fetch.  :meth:`DeltaServer.handle` drives it with
``run_sync`` over the engine's own fetch, which never suspends, so it is
the blocking call the simulation and the executor threads make.

The paper models a single-CPU delta-server; this engine is sharded for
per-class concurrency instead (a caller that wants the single-CPU model
holds one lock around :meth:`DeltaServer.handle`, as the concurrency
benchmark's baseline does):

* **The origin fetch runs under no engine lock.**  A slow (or retrying,
  backing-off) origin stalls only its own request, never other classes.
* **Classification serializes per ``(server, hint)`` shard** inside the
  grouper — light-estimate probes for different sites run in parallel;
  racing first-requests for one URL cannot fork a class.
* **Class state is guarded by per-class locks**: membership, base-file
  lifecycle, policy samples, and rebase decisions for one class never
  block requests of another class.
* **Delta generation is lock-free via snapshot-encode-commit**: the
  ``(version, BaseIndex)`` pair is snapshotted under the class lock, the
  Vdelta encode and deflate compress run outside every lock (both are
  byte-level work), and the commit step revalidates the version.  If a
  rebase or a storage release won the race, the commit is abandoned — one
  retry against the new base, then a full response.  A delta against a
  retired base version is never served.
* **Counters are striped per thread** (:mod:`repro.core.counters`), so
  accounting stays exact under contention without a shared hot lock;
  ``stats`` materializes a :class:`ServerStats` snapshot on read.

Lock ordering (to stay deadlock-free): shard lock → class lock →
health lock; storage-manager lock → class lock.  No path acquires two
class locks at once, and nothing takes a shard or storage lock while
holding a class lock.

Persistence
-----------

With a :class:`~repro.store.Store` (``store=``), the engine journals each
lifecycle event into it where the event happens: class creation, the
durable base commit (under the class lock), quarantine (under the class
lock), and — through the grouper and the storage manager — membership,
popularity checkpoints and budget releases.  The store takes only its own
lock and never calls back, so every engine lock → store lock edge is
acyclic.  Construction with a store is a warm restart: classes,
memberships and latest bases come back from :meth:`Store.classes` before
the first request.
"""

from __future__ import annotations

import itertools
import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from time import perf_counter
from typing import Iterator

from repro.core.classes import DocumentClass
from repro.core.config import MIN_DOCUMENT_BYTES, DeltaServerConfig
from repro.core.base_file import RandomizedPolicy
from repro.core.counters import StripedCounters
from repro.core.grouping import Grouper
from repro.core.rebase import RebaseController
from repro.core.sketch import MinHashSketcher
from repro.core.storage import StorageManager
from repro.delta.codec import checksum
from repro.delta.compress import DEFAULT_LEVEL
from repro.delta.light import LightEstimator
from repro.delta.vdelta import BaseIndex, VdeltaEncoder
from repro.http.messages import (
    HEADER_CONTENT_ENCODING,
    HEADER_DEGRADED,
    HEADER_DELTA,
    HEADER_DELTA_BASE,
    HEADER_STAGE_TIMES,
    Request,
    Response,
    base_ref,
)
from repro.http.sync import run_sync
from repro.metrics.registry import MetricsRegistry
from repro.metrics.stats import counter, stats_dict
from repro.resilience.policy import OriginFetch, OriginUnavailable
from repro.store.pack import PackCorruptionError
from repro.store.store import Store, StoreError, _class_sort
from repro.url.rules import RuleBook

BASE_FILE_SEGMENT = "__delta_base__"

#: How many times a delta commit that lost a rebase race is retried against
#: the new base version before falling back to a full response.
COMMIT_RETRIES = 1


def format_stage_times(timings: dict[str, float]) -> str:
    """Render per-stage durations for the ``X-Stage-Times`` header."""
    return ";".join(f"{stage}={seconds:.6f}" for stage, seconds in timings.items())


def parse_stage_times(value: str | None) -> dict[str, float]:
    """Inverse of :func:`format_stage_times`; tolerant of malformed tokens."""
    timings: dict[str, float] = {}
    if not value:
        return timings
    for token in value.split(";"):
        stage, sep, seconds = token.partition("=")
        if not sep:
            continue
        try:
            timings[stage.strip()] = float(seconds)
        except ValueError:
            continue
    return timings


@dataclass(slots=True)
class ServerStats:
    """Aggregate delta-server accounting (drives Table II).

    This is the *snapshot* type: the engine keeps striped per-thread
    counters internally and materializes one of these on every
    ``server.stats`` read, so totals are exact once worker threads have
    quiesced and never lose increments while they run.
    """

    requests: int = counter("document requests the origin answered")
    #: what a direct (no delta-server) deployment would have sent
    direct_bytes: int = counter("document bytes the origin produced")
    sent_bytes: int = counter("bytes sent to clients for document responses")
    deltas_served: int = counter("documents answered with a delta")
    full_served: int = counter("documents answered in full by the engine")
    passthrough: int = counter("origin answers passed through untouched")
    base_files_served: int = counter("base-file requests answered")
    base_file_bytes: int = counter("base-file bytes sent")
    group_rebases: int = counter("rebases on timeout + better candidate")
    basic_rebases: int = counter("rebases on persistently large deltas")
    #: degraded answers while the origin was unavailable (stale base / 502)
    stale_served: int = counter("marked-stale base-files served as documents")
    origin_unavailable: int = counter("requests with no origin and no base")
    #: self-healing: classes taken out of delta service, split by cause
    quarantines: int = counter("classes taken out of delta service")
    integrity_failures: int = counter("quarantines for a base checksum mismatch")
    encode_failures: int = counter("quarantines for a failed encode")
    quarantine_recoveries: int = counter("quarantined classes that re-adopted")
    #: snapshot-encode-commit: encodes abandoned because a rebase or
    #: storage release retired the snapshotted base version mid-encode …
    commit_conflicts: int = counter("encodes abandoned at commit revalidation")
    #: … and requests that ended in a full response because of it.
    commit_fallbacks: int = counter("full responses after a commit conflict")

    @property
    def savings(self) -> float:
        """Fractional bandwidth savings on document traffic (Table II)."""
        if not self.direct_bytes:
            return 0.0
        return 1.0 - self.sent_bytes / self.direct_bytes


#: counter names backing a ServerStats snapshot
STAT_FIELDS = tuple(f.name for f in dataclass_fields(ServerStats))


@dataclass(slots=True)
class _DeltaPlan:
    """Snapshot taken under the class lock for one off-lock encode."""

    version: int
    index: BaseIndex
    #: True when the snapshot was the class's current version (False: the
    #: client holds the still-servable previous generation).
    served_current: bool


class DeltaServer:
    """Class-based delta-encoding engine in front of an origin server."""

    def __init__(
        self,
        origin_fetch: OriginFetch,
        config: DeltaServerConfig | None = None,
        rulebook: RuleBook | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        store: Store | None = None,
        class_id_prefix: str = "",
    ) -> None:
        self.config = config or DeltaServerConfig()
        self._origin_fetch = origin_fetch
        #: observability sink: per-stage pipeline timings land here as
        #: ``engine_stage_seconds{stage=...}`` histograms (shared with the
        #: serving layer when wired through ``build_server``).
        self.metrics = metrics or MetricsRegistry()
        #: the persistent pack/journal store, or None when persistence is
        #: off (then no store call is made anywhere in the engine)
        self.store = store
        # Quarantine membership has its own tiny lock so health probes
        # never wait behind a class lock mid-encode or a struggling
        # origin fetch.
        self._health_lock = threading.Lock()
        self._quarantined: set[str] = set()
        self._rng = random.Random(self.config.seed)
        self._encoder = VdeltaEncoder()
        self._estimator = LightEstimator()
        # One reusable wire buffer per thread: the streaming kernel clears
        # and refills it, so steady-state encodes allocate nothing for
        # wire bytes.  Thread-local because encodes run off-lock.
        self._encode_buffers = threading.local()
        #: fleet workers mint ids under a ``w<k>-`` prefix so base-file
        #: URLs can be routed to the owning worker without a directory
        self._class_id_prefix = class_id_prefix
        self._class_ids = itertools.count(1)
        self._closed = False
        self._controllers: dict[str, RebaseController] = {}
        self._counters = StripedCounters(STAT_FIELDS)
        self.storage = StorageManager(self.config.storage_budget_bytes, store=store)
        self.grouper = Grouper(
            config=self.config.grouping,
            rulebook=rulebook or RuleBook(),
            estimator=self._estimator,
            sketcher=MinHashSketcher(),
            class_factory=self._new_class,
            seed=self.config.seed,
            store=store,
            metrics=self.metrics,
        )
        self.rehydrated_classes = self._rehydrate(store) if store is not None else 0

    # -- wiring ----------------------------------------------------------------

    @property
    def stats(self) -> ServerStats:
        """A :class:`ServerStats` snapshot of the striped counters."""
        return ServerStats(**self._counters.snapshot())

    def _new_class(self, server: str, hint: str) -> DocumentClass:
        class_id = f"{self._class_id_prefix}cls{next(self._class_ids)}"
        cls = self._build_class(class_id, server, hint)
        if self.store is not None:
            self.store.add_class(class_id, server, hint)
        return cls

    def _build_class(self, class_id: str, server: str, hint: str) -> DocumentClass:
        policy = RandomizedPolicy(
            self.config.base_file, self._light_size, self._rng
        )
        cls = DocumentClass(
            class_id=class_id,
            server=server,
            hint=hint,
            anonymization=self.config.anonymization,
            policy=policy,
            encoder=self._encoder,
            estimator=self._estimator,
        )
        self._controllers[class_id] = RebaseController(self.config.base_file)
        return cls

    def _rehydrate(self, store: Store) -> int:
        """Warm restart: rebuild classes, memberships and latest bases.

        Runs once, before the first request, over the store's index.
        Classes come back under their persisted ids, without re-journaling
        anything, and the id counter resumes past the highest one so a
        class created after the restart never collides with a persisted
        one.  A class whose on-disk chain fails materialization (checksum
        mismatch, torn frame) comes back *base-less* — it re-adopts from
        its next origin fetch rather than ever serving damaged bytes.
        Returns the number of classes restored.
        """
        states = sorted(store.classes(), key=lambda st: _class_sort(st.class_id))
        for state in states:
            cls = self._build_class(state.class_id, state.server, state.hint)
            # Base first, grouper second: registration re-sketches the
            # restored base when its signature was never persisted (or was
            # sketched with another geometry).
            if state.latest is not None:
                try:
                    document = store.materialize(state.class_id, state.latest)
                except (StoreError, PackCorruptionError):
                    pass
                else:
                    entry = state.entries[state.latest]
                    cls.restore_base(document, state.latest, entry.doc_checksum)
            self.grouper.register(
                cls, state.members, hits=state.hits, signature=state.sketch
            )
        if states:
            # The trailing digit run is the counter value: a fleet-prefixed
            # id like ``w3-cls12`` resumes at 13, not 313.
            highest, _ = _class_sort(states[-1].class_id)
            self._class_ids = itertools.count(highest + 1)
        store.stats.rehydrated_classes = len(states)
        return len(states)

    def _light_size(self, base: bytes, target: bytes) -> int:
        return self._estimator.estimate(base, target)

    @contextmanager
    def _class_locked(
        self, cls: DocumentClass, timings: dict[str, float]
    ) -> Iterator[None]:
        """Acquire ``cls.lock``, charging the wait to the lock_wait stage."""
        entered = perf_counter()
        cls.lock.acquire()
        timings["lock_wait"] += perf_counter() - entered
        try:
            yield
        finally:
            cls.lock.release()

    # -- request handling ----------------------------------------------------------

    def handle(self, request: Request, now: float) -> Response:
        """:meth:`serve` over the engine's own origin fetch, driven to completion."""
        return run_sync(self.serve(request, now, self._origin_fetch))

    async def serve(self, request: Request, now: float, fetch: OriginFetch) -> Response:
        """Process one client (or proxy-forwarded) request.

        Thread-safe: concurrent callers for different classes proceed in
        parallel (see the module docstring for the locking model).

        Each request's pipeline stages (lock wait, class lookup, origin
        fetch, encode, compress) are timed into the engine's metrics
        registry and attached to the response as ``X-Stage-Times`` so a
        slow request can be correlated (via ``X-Trace-Id``) with the
        stage that cost it.  ``lock_wait`` aggregates every wait of the
        request — shard, class, and commit lock acquisitions.
        """
        timings: dict[str, float] = {"lock_wait": 0.0}
        base_file = self.parse_base_file_url(request.url)
        started = perf_counter()
        if base_file is not None:
            response = self._serve_base_file(*base_file, timings=timings)
            timings["base_file"] = perf_counter() - started
        else:
            try:
                origin_response: Response | None = await fetch(request, now)
            except OriginUnavailable:
                # The resilience policy gave up (circuit open, retries or
                # deadline spent): degrade gracefully instead of failing.
                origin_response = None
            timings["origin_fetch"] = perf_counter() - started
            response = self._process(request, origin_response, now, timings)
        response.headers.set(HEADER_STAGE_TIMES, format_stage_times(timings))
        for stage, seconds in timings.items():
            self.metrics.observe(
                "engine_stage_seconds",
                seconds,
                {"stage": stage},
                help="per-request delta-server pipeline stage durations",
            )
        return response

    def _process(
        self,
        request: Request,
        origin_response: Response | None,
        now: float,
        timings: dict[str, float],
    ) -> Response:
        if origin_response is None:
            return self._degraded_response(request, timings)
        self._counters.inc("requests")
        if (
            origin_response.status != 200
            or len(origin_response.body) < MIN_DOCUMENT_BYTES
            or len(origin_response.body) > self.config.max_document_bytes
        ):
            # Out-of-bounds sizes pass straight through: tiny documents are
            # not worth the delta machinery, oversized ones must not be
            # indexed/encoded (and could never be decoded by clients, which
            # enforce the same bound against hostile payloads).
            self._counters.inc("passthrough")
            return origin_response

        document = origin_response.body
        self._counters.inc("direct_bytes", len(document))

        started = perf_counter()
        waited_before = timings["lock_wait"]
        cls, _created = self.grouper.classify(request.url, document, timings)
        self._ingest(cls, request, document, now, timings)
        if self.storage.stats.enforced:
            # Never called holding a class lock (the manager takes them
            # one at a time); a release racing an in-flight encode is
            # caught by that request's commit revalidation.
            self.storage.enforce(self.grouper.classes, protect=cls)
        timings["classify"] = (perf_counter() - started) - (
            timings["lock_wait"] - waited_before
        )

        return self._respond(cls, request, document, timings)

    def _ingest(
        self,
        cls: DocumentClass,
        request: Request,
        document: bytes,
        now: float,
        timings: dict[str, float],
    ) -> None:
        """Feed one fresh origin document into the class, under its lock."""
        with self._class_locked(cls, timings):
            version_before = cls.version
            cls.policy.observe(document, request.user_id)
            if cls.raw_base is None:
                # The class is born with this response as its base-file
                # (the simplest scheme); a storage-released or quarantined
                # class re-adopts the same way.  The policy may replace
                # the base later.
                was_quarantined = cls.quarantined
                cls.adopt_base(document, owner_user=request.user_id, now=now)
                if was_quarantined:
                    self._counters.inc("quarantine_recoveries")
                    with self._health_lock:
                        self._quarantined.discard(cls.class_id)
            else:
                cls.feed(document, request.user_id)
                self._maybe_rebase(cls, document, request.user_id, now)
            # Keep the LSH candidate index in step with the base the
            # grouper probes: a no-op (two attribute reads) unless the
            # base object changed (adoption, promotion, rebase, release).
            # Still under the class lock — class lock → sketch-index lock
            # is the sanctioned ordering.
            signature = self.grouper.refresh_sketch(cls)
            if (
                self.store is not None
                and cls.version != version_before
                and cls.can_serve_deltas
            ):
                # A promotion happened (adoption, anonymization completion,
                # or rebase): durably commit the new distributable version.
                # Still under the class lock, so the committed bytes are
                # exactly the version being published (class lock → store
                # lock is the sanctioned ordering).  The signature rides
                # along so a warm restart does not re-sketch the base.
                started = perf_counter()
                assert cls.distributable_base is not None
                self.store.commit_base(
                    cls.class_id,
                    cls.version,
                    cls.distributable_base,
                    cls.distributable_checksum,
                    signature=signature,
                )
                timings["store_commit"] = (
                    timings.get("store_commit", 0.0) + perf_counter() - started
                )

    def class_of(self, url: str) -> DocumentClass | None:
        """The class a URL has been grouped into, if any (diagnostics).

        O(1) against the grouper's url → class map — no lock, no scan.
        """
        return self.grouper.class_for_url(url)

    def health_snapshot(self) -> dict:
        """Self-healing and degradation state for the health endpoint.

        Deliberately avoids every engine lock (a class lock may be held
        across an encode) so a health probe never blocks behind a busy
        class; counters are weakly-consistent striped reads.
        """
        with self._health_lock:
            quarantined = sorted(self._quarantined)
        return {
            "classes": self.grouper.class_count(),
            "warm_start": self.rehydrated_classes > 0,
            "rehydrated_classes": self.rehydrated_classes,
            "store": self.store.snapshot() if self.store is not None else None,
            "quarantined": quarantined,
            **stats_dict(self.stats),
        }

    def close(self) -> None:
        """Flush and close the persistent store (no-op without one).

        Idempotent: the serve layer's drain path and process-exit cleanup
        can both reach this — the second and later calls do nothing.
        """
        if self._closed:
            return
        self._closed = True
        if self.store is not None:
            self.store.close()

    # -- internals ---------------------------------------------------------------

    def _degraded_response(
        self, request: Request, timings: dict[str, float]
    ) -> Response:
        """Answer without the origin: marked-stale base-file, else 502.

        The class's distributable base is a complete, recently-accurate
        document for every member URL — far better than an error page
        while the origin recovers.  The response is explicitly marked so
        clients and freshness checks know it is not a fresh render.
        """
        cls = self.grouper.class_for_url(request.url)
        if cls is not None:
            with self._class_locked(cls, timings):
                if cls.can_serve_deltas and cls.integrity_ok(cls.version):
                    assert cls.distributable_base is not None
                    response = Response(status=200, body=cls.distributable_base)
                    response.headers.set(HEADER_DEGRADED, "stale-base")
                    response.headers.set("Warning", '110 - "response is stale"')
                    self._counters.inc("stale_served")
                    return response
        self._counters.inc("origin_unavailable")
        response = Response(status=502, body=b"origin unavailable")
        response.headers.set(HEADER_DEGRADED, "origin-unavailable")
        return response

    def _quarantine(self, cls: DocumentClass, *, cause: str) -> None:
        """Pull a class out of delta service after an engine fault.

        Caller must hold ``cls.lock``.
        """
        cls.quarantine()
        self._counters.inc("quarantines")
        if cause == "integrity":
            self._counters.inc("integrity_failures")
        else:
            self._counters.inc("encode_failures")
        with self._health_lock:
            self._quarantined.add(cls.class_id)
        # Class lock → store lock: the persisted chain becomes garbage so
        # a restart cannot rehydrate the suspect bytes.
        if self.store is not None:
            self.store.quarantine(cls.class_id, cause)

    def _maybe_rebase(
        self, cls: DocumentClass, document: bytes, user_id: str | None, now: float
    ) -> None:
        """Apply rebase policy for one class.  Caller holds ``cls.lock``."""
        if cls.anonymization_pending:
            # A rebase is already in flight (its base is being anonymized);
            # re-triggering would restart the user-collection window forever
            # and the class would never finish a transition.
            return
        controller = self._controllers[cls.class_id]
        decision = controller.check(
            cls.policy, cls.raw_base, document, now, cls.last_rebase_at
        )
        if decision is None:
            return
        if decision.kind == "basic":
            # "When a basic-rebase takes place, all K stored documents are
            # flushed."
            cls.policy.flush()
            cls.adopt_base(decision.new_base, owner_user=user_id, now=now)
            cls.stats.basic_rebases += 1
            self._counters.inc("basic_rebases")
        else:
            owner = cls.policy.current_owner()
            cls.adopt_base(decision.new_base, owner_user=owner, now=now)
            cls.stats.group_rebases += 1
            self._counters.inc("group_rebases")
        controller.reset()

    # -- snapshot / encode / commit ------------------------------------------------

    def _respond(
        self,
        cls: DocumentClass,
        request: Request,
        document: bytes,
        timings: dict[str, float],
    ) -> Response:
        """Answer with a delta when possible, else the full document.

        Delta generation follows snapshot-encode-commit: the base version
        and its index are snapshotted under the class lock, the encode and
        compress run under *no* lock, and the commit revalidates the
        version.  A commit that lost a rebase/release race is retried
        (:data:`COMMIT_RETRIES` times) against the fresh state; when
        retries run out — or the fresh state no longer admits a delta —
        the full document is served.  The loop can therefore never emit a
        delta referencing a base version that has been retired.
        """
        accepted = request.accepts_delta()
        conflicts = 0
        for _attempt in range(1 + COMMIT_RETRIES):
            plan = self._plan_delta(cls, accepted, timings)
            if plan is None:
                break
            encoded = self._encode_delta(cls, plan, document, timings)
            if encoded is None:
                break  # encoder fault — class just quarantined
            outcome, response = self._commit_delta(
                cls, plan, encoded, document, timings
            )
            if outcome == "served":
                assert response is not None
                return response
            if outcome == "full":
                break  # degenerate delta: full document is cheaper
            conflicts += 1
            self._counters.inc("commit_conflicts")
        if conflicts:
            self._counters.inc("commit_fallbacks")
        return self._full_response(cls, document, timings)

    def _plan_delta(
        self,
        cls: DocumentClass,
        accepted: list[str],
        timings: dict[str, float],
    ) -> _DeltaPlan | None:
        """Snapshot the servable base version for an off-lock encode."""
        with self._class_locked(cls, timings):
            if not cls.can_serve_deltas:
                return None
            if base_ref(cls.class_id, cls.version) in accepted:
                version = cls.version
            elif cls.previous_version is not None and (
                base_ref(cls.class_id, cls.previous_version) in accepted
            ):
                # The client still holds the pre-rebase base: serve a
                # delta against it (the commit will advertise the new
                # base so the client upgrades without a full response).
                version = cls.previous_version
            else:
                return None
            index = cls.full_index_for(version)
            if index is None:
                return None
            if not cls.integrity_ok(version):
                # The stored base no longer matches its promotion
                # checksum: storage corruption.  Quarantine before a delta
                # against rotten bytes reaches any client.
                self._quarantine(cls, cause="integrity")
                return None
            return _DeltaPlan(
                version=version,
                index=index,
                served_current=version == cls.version,
            )

    def _encode_buffer(self) -> bytearray:
        """This thread's reusable wire buffer (created on first use)."""
        buffer = getattr(self._encode_buffers, "buffer", None)
        if buffer is None:
            buffer = self._encode_buffers.buffer = bytearray()
            self.metrics.inc(
                "delta_encode_buffer_allocs_total",
                help="reusable wire-encode buffers allocated (one per thread)",
            )
        else:
            self.metrics.inc(
                "delta_encode_buffer_reuses_total",
                help="wire encodes that reused a thread-local buffer",
            )
        return buffer

    def _encode_delta(
        self,
        cls: DocumentClass,
        plan: _DeltaPlan,
        document: bytes,
        timings: dict[str, float],
    ) -> tuple[int, bytes] | None:
        """Encode + compress against the snapshot, under no lock.

        Returns ``(wire_size, compressed_payload)``.  The streaming kernel
        feeds wire bytes straight into a ``zlib`` compressor in ~64 KiB
        chunks, so the uncompressed wire image is never materialized; the
        finished artifact is memoized in the class's
        :class:`~repro.core.classes.EncodeCache` keyed by (base version,
        target checksum) — repeat requests for the same snapshot skip the
        whole encode.
        """
        started = perf_counter()
        doc_checksum = checksum(document)
        cached = cls.encode_cache.get(plan.version, doc_checksum)
        if cached is not None:
            self.metrics.inc(
                "delta_encode_cache_hits_total",
                help="delta encodes served from the per-class encode cache",
            )
            timings["encode"] = timings.get("encode", 0.0) + (
                perf_counter() - started
            )
            return cached
        self.metrics.inc(
            "delta_encode_cache_misses_total",
            help="delta encodes that ran the streaming kernel",
        )
        compress_seconds = 0.0
        try:
            compressor = zlib.compressobj(DEFAULT_LEVEL)
            parts: list[bytes] = []

            def sink(chunk: bytearray) -> None:
                nonlocal compress_seconds
                entered = perf_counter()
                parts.append(compressor.compress(chunk))
                compress_seconds += perf_counter() - entered

            wire_size = self._encoder.encode_stream_with_index(
                plan.index,
                document,
                sink,
                doc_checksum,
                buffer=self._encode_buffer(),
            )
            entered = perf_counter()
            parts.append(compressor.flush())
            payload = b"".join(parts)
            compress_seconds += perf_counter() - entered
        except Exception:
            # An encoder/codec fault costs this class its delta service
            # (one full response now, fresh base on the next good fetch),
            # never the request.
            with self._class_locked(cls, timings):
                self._quarantine(cls, cause="encode")
            return None
        total = perf_counter() - started
        timings["encode"] = timings.get("encode", 0.0) + (total - compress_seconds)
        timings["compress"] = timings.get("compress", 0.0) + compress_seconds
        cls.encode_cache.put(plan.version, doc_checksum, wire_size, payload)
        return wire_size, payload

    def _commit_delta(
        self,
        cls: DocumentClass,
        plan: _DeltaPlan,
        encoded: tuple[int, bytes],
        document: bytes,
        timings: dict[str, float],
    ) -> tuple[str, Response | None]:
        """Revalidate the snapshot and publish the delta.

        Returns ``("served", response)``, ``("full", None)`` for a
        degenerate delta, or ``("conflict", None)`` when a rebase,
        quarantine, or storage release retired the snapshotted version
        while the encode ran off-lock.
        """
        wire_size, payload = encoded
        with self._class_locked(cls, timings):
            if plan.served_current:
                valid = cls.version == plan.version and cls.can_serve_deltas
            else:
                valid = (
                    not cls.quarantined
                    and cls.previous_version == plan.version
                    and cls.base_for_version(plan.version) is not None
                )
            if not valid:
                return "conflict", None
            controller = self._controllers[cls.class_id]
            controller.note_delta(wire_size, len(document))
            if len(payload) >= len(document):
                # Degenerate delta (base drifted badly); the full document
                # is cheaper.  The controller already saw the bad ratio,
                # so a basic-rebase will follow shortly.
                return "full", None
            response = Response(status=200, body=payload)
            response.headers.set(HEADER_DELTA, base_ref(cls.class_id, plan.version))
            response.headers.set(HEADER_CONTENT_ENCODING, "deflate")
            if not plan.served_current:
                response.headers.set(
                    HEADER_DELTA_BASE, base_ref(cls.class_id, cls.version)
                )
            cls.stats.deltas_served += 1
        self._counters.inc("deltas_served")
        self._counters.inc("sent_bytes", len(payload))
        return "served", response

    def _full_response(
        self, cls: DocumentClass, document: bytes, timings: dict[str, float]
    ) -> Response:
        response = Response(status=200, body=document)
        with self._class_locked(cls, timings):
            # A delta attempt may have just quarantined the class
            # (corrupted base or encoder fault): then the current ref
            # points at a released base and must not be advertised.
            ref = (
                base_ref(cls.class_id, cls.version)
                if cls.can_serve_deltas
                else None
            )
            cls.stats.full_served += 1
        if ref is not None:
            # Advertise the class's base-file so the client can pick it up
            # (via any proxy-cache on the way) and use deltas next time.
            response.headers.set(HEADER_DELTA_BASE, ref)
        self._counters.inc("full_served")
        self._counters.inc("sent_bytes", len(document))
        return response

    # -- base-file distribution -------------------------------------------------------

    @staticmethod
    def parse_base_file_url(url: str) -> tuple[str, int] | None:
        """Recognize ``<server>/__delta_base__/<class_id>/<version>`` URLs.

        Returns ``(class_id, version)``; the engine serves the base-file,
        and the fleet router routes the request to the worker that minted
        the class id.  Malformed shapes (missing version, non-integer or
        negative version, empty class id) return ``None`` — the URL then
        flows down the ordinary document path instead of crashing the
        request.  The live server feeds this attacker-controlled bytes, so
        it must be total.
        """
        parts = url.split("/")
        if BASE_FILE_SEGMENT not in parts:
            return None
        i = parts.index(BASE_FILE_SEGMENT)
        if i + 2 >= len(parts):
            return None  # missing class id and/or version
        class_id, version = parts[i + 1], parts[i + 2]
        if not class_id:
            return None
        # isascii + isdigit rejects "", "-1", "1.5", "1e3", and unicode
        # digit lookalikes that int() would reject or misread.
        if not version.isascii() or not version.isdigit():
            return None
        return class_id, int(version)

    def _serve_base_file(
        self, class_id: str, version: int, *, timings: dict[str, float]
    ) -> Response:
        try:
            cls = self.grouper.class_by_id(class_id)
        except KeyError:
            return Response(status=404, body=b"unknown class")
        with self._class_locked(cls, timings):
            body = cls.base_for_version(version)
            if body is None:
                return Response(status=404, body=b"stale base-file version")
            if not cls.integrity_ok(version):
                # Never distribute corrupted bytes; the class heals itself
                # on its next document fetch.
                self._quarantine(cls, cause="integrity")
                return Response(status=404, body=b"base-file quarantined")
            response = Response(status=200, body=body)
            response.headers.set(HEADER_DELTA_BASE, base_ref(class_id, version))
            response.mark_cachable()
        self._counters.inc("base_files_served")
        self._counters.inc("base_file_bytes", len(body))
        return response

    @staticmethod
    def base_file_url(server: str, class_id: str, version: int) -> str:
        """URL at which a class's base-file is served (proxy-cachable)."""
        return f"{server}/{BASE_FILE_SEGMENT}/{class_id}/{version}"
