"""The grouping mechanism: assigning requests to document classes.

Implements Section III's search procedure with all four heuristics:

1. URLs are partitioned into server-part / hint-part / rest (admin regex
   rules with heuristic fallback, :mod:`repro.url`); a new class is created
   outright when no existing class shares the request's server-part, since
   "it is very unlikely that two documents originating from different
   servers will be close enough".
2. If classes share the request's hint-part, only those are considered.
3. At most ``N`` classes are probed; no match after ``N`` tries creates a
   new class.
4. The first ``a·N`` probes go to the most popular eligible classes, the
   remaining ``(1-a)·N`` to random picks among the rest; the search stops at
   the first match (the paper's preferred variant) unless configured to
   probe all ``N`` and keep the best.
5. Closeness is *estimated* with the light differ, not measured with the
   full one.

A *matching* occurs when the estimated delta is below
``match_threshold × len(document)``.

Candidate selection — the sketch index
--------------------------------------

The paper's procedure considers *every* same-server class when no
same-hint class exists, and even the popular-first ordering is
O(classes) per request — the scaling wall for million-URL corpora.
With a :class:`~repro.core.sketch.MinHashSketcher` (what the engine
always passes) a MinHash/LSH index replaces that scan: the request
document is sketched once (about the cost of one light estimate), the
LSH lookup returns the classes whose *base content* is near-duplicate in
O(1), and only that small candidate set is popularity-ordered and
light-estimated as the confirming stage.  Heuristic 2 is preserved: when same-hint
classes exist they stay the candidate pool (the sketch only narrows it
when the pool exceeds the probe budget).  ``sketcher=None`` keeps the
literal exhaustive procedure; only tests and
``benchmarks/bench_grouping_scale.py`` build it, as the parity reference.

Manual grouping — "the administrator has the option to manually group URLs
into classes" — is supported via regex pin rules checked before the
automatic search.

Concurrency: classification is sharded.  The fast path (a URL already
grouped) is lock-free — one dict read against the url → class map.  The
slow path (the actual search) serializes on a *shard lock* keyed by the
request's ``(server, hint)`` pair, so searches for different sites — and
different hints of one site — run in parallel while two racing first
requests for the same key can never fork a class.  Probing a candidate
class's light index takes that class's own lock only for the cached-index
lookup; the estimate itself runs against the immutable index outside it.
Registry maps are guarded by a single brief registry lock.  Each shard
draws its random probes from its own seeded RNG (derived from the
grouper seed and the shard key), so concurrent shards never interleave
one generator's state and runs are reproducible regardless of thread
scheduling.
"""

from __future__ import annotations

import math
import random
import re
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence
from zlib import crc32

from repro.core.classes import DocumentClass
from repro.core.config import GroupingConfig
from repro.core.sketch import MinHashSketcher, SketchIndex
from repro.delta.light import LightEstimator
from repro.metrics.registry import MetricsRegistry
from repro.metrics.stats import counter
from repro.store.store import HIT_JOURNAL_STRIDE, Store
from repro.url.parts import URLParts
from repro.url.rules import RuleBook

@dataclass(slots=True)
class GroupingStats:
    """Search diagnostics for Section VI-B's grouping evaluation."""

    requests: int = counter("classify calls (one per document request)")
    matched: int = counter("new URLs the search grouped into an existing class")
    created: int = counter("new URLs that founded a class")
    manual: int = counter("new URLs placed by a manual (pinned) mapping")
    total_tries: int = counter("candidate classes probed with a delta estimate")
    sketch_hits: int = counter("LSH lookups that produced at least one candidate")
    sketch_misses: int = counter("LSH lookups that produced no candidate")
    #: histogram: tries_needed -> count (successful matches only)
    tries_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def mean_tries(self) -> float:
        """Average probes per successful match ("a couple of tries")."""
        if not self.matched:
            return 0.0
        return sum(t * c for t, c in self.tries_histogram.items()) / self.matched


class Grouper:
    """Groups URL-requests into document classes."""

    def __init__(
        self,
        config: GroupingConfig,
        rulebook: RuleBook,
        estimator: LightEstimator,
        class_factory: Callable[[str, str], DocumentClass],
        sketcher: MinHashSketcher | None,
        seed: int = 2002,
        store: Store | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._config = config
        self._rulebook = rulebook
        self._estimator = estimator
        self._class_factory = class_factory
        self._seed = seed
        #: persistence: membership is journaled once per (class_id, url)
        #: adoption and popularity (which orders heuristic-4 probes) once
        #: per HIT_JOURNAL_STRIDE hits, so both survive a restart; nothing
        #: is journaled while a warm restart registers classes.
        self._store = store
        self._metrics = metrics
        self.stats = GroupingStats()

        #: ``None`` is Section III's literal scan, the parity reference
        #: tests and the grouping-scale bench compare the sketch against.
        self._sketcher = sketcher
        self._sketch_index = SketchIndex(sketcher) if sketcher is not None else None

        self._classes: dict[str, DocumentClass] = {}
        self._by_server: dict[str, list[DocumentClass]] = {}
        self._by_key: dict[tuple[str, str], list[DocumentClass]] = {}
        self._url_to_class: dict[str, str] = {}
        self._manual_rules: list[tuple[re.Pattern[str], str]] = []
        # Registry lock: guards the maps above (brief, never held across a
        # probe or an estimate).  Shard locks serialize the search per
        # (server, hint) key; stats lock keeps search diagnostics exact.
        self._registry_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._shard_locks: dict[tuple[str, str], threading.Lock] = {}
        self._shard_rngs: dict[tuple[str, str], random.Random] = {}

    # -- registry ------------------------------------------------------------

    @property
    def classes(self) -> list[DocumentClass]:
        with self._registry_lock:
            return list(self._classes.values())

    def class_by_id(self, class_id: str) -> DocumentClass:
        return self._classes[class_id]

    def class_for_url(self, url: str) -> DocumentClass | None:
        """The class ``url`` has been grouped into, or None.

        One dict read against the url → class map the grouper maintains on
        every membership change — O(1), replacing the old engine-side
        O(classes × members) scan, and safe without any lock (classes are
        never deleted; dict reads are atomic).
        """
        class_id = self._url_to_class.get(url)
        if class_id is None:
            return None
        return self._classes.get(class_id)

    def class_count(self) -> int:
        with self._registry_lock:
            return len(self._classes)

    def pin_manual(self, url_pattern: str, class_id: str) -> None:
        """Manually route URLs matching ``url_pattern`` to ``class_id``.

        The class must already exist (create it by replaying one request or
        via :meth:`create_class`).  The existence check happens under the
        registry lock, atomically with appending the rule, so a rule can
        never be registered for an id that was concurrently observed as
        absent (and the error is raised before any state changes).
        """
        compiled = re.compile(url_pattern)
        with self._registry_lock:
            if class_id not in self._classes:
                raise KeyError(f"unknown class {class_id!r}")
            self._manual_rules.append((compiled, class_id))

    def create_class(self, parts: URLParts) -> DocumentClass:
        """Create (and register) an empty class for a URL's parts."""
        cls = self._class_factory(parts.server, parts.hint)
        self.register(cls)
        return cls

    def register(
        self,
        cls: DocumentClass,
        members: Sequence[str] = (),
        *,
        hits: int = 0,
        signature: Sequence[int] | None = None,
    ) -> None:
        """Put ``cls`` into the registry maps: a new class, or a restored one.

        A warm restart passes the persisted membership, popularity and
        base sketch.  They are already on disk, so nothing is journaled —
        re-journaling on every restart would grow the journal unboundedly.
        ``hits`` restores the popularity counter that orders heuristic-4
        probes.  ``signature`` is the persisted sketch of the (already
        restored) base; when absent, or from a different sketch geometry,
        the base is re-sketched so the class stays findable through the
        LSH index.
        """
        with cls.lock:
            for url in members:
                cls.add_member(url)
            cls.stats.hits = max(cls.stats.hits, hits)
        with self._registry_lock:
            self._classes[cls.class_id] = cls
            self._by_server.setdefault(cls.server, []).append(cls)
            self._by_key.setdefault(cls.key, []).append(cls)
            for url in members:
                self._url_to_class[url] = cls.class_id
        if self._sketch_index is None:
            return
        assert self._sketcher is not None
        with cls.lock:
            base = cls.match_base
            if base is None:
                return
            if signature is not None and len(signature) == self._sketcher.num_perm:
                base.signature = tuple(int(slot) for slot in signature)
                self._sketch_index.register(cls.class_id, base.signature)
            else:
                self.refresh_sketch(cls)

    def _shard_lock(self, key: tuple[str, str]) -> threading.Lock:
        lock = self._shard_locks.get(key)
        if lock is None:
            with self._registry_lock:
                lock = self._shard_locks.setdefault(key, threading.Lock())
        return lock

    def _shard_rng(self, key: tuple[str, str]) -> random.Random:
        """This shard's private seeded RNG (heuristic-4 random picks).

        Derived from the grouper seed and the shard key, so the draw
        sequence of one shard is a pure function of that shard's own
        search history — concurrent shards cannot interleave generator
        state, and reordering *across* shards cannot change any shard's
        draws.  Only ever advanced under the shard's lock.
        """
        rng = self._shard_rngs.get(key)
        if rng is None:
            with self._registry_lock:
                rng = self._shard_rngs.get(key)
                if rng is None:
                    derived = (self._seed << 32) ^ crc32(
                        f"{key[0]}\x1f{key[1]}".encode()
                    )
                    rng = self._shard_rngs.setdefault(key, random.Random(derived))
        return rng

    # -- the grouping search ------------------------------------------------------

    def classify(
        self,
        url: str,
        document: bytes,
        timings: dict[str, float] | None = None,
    ) -> tuple[DocumentClass, bool]:
        """Assign ``(url, document)`` to a class; returns ``(class, created)``.

        URLs keep their class once grouped — subsequent requests for a known
        URL skip the search entirely (and skip every lock except the hit
        counter's class lock), so search cost is paid once per distinct
        document, not once per request.  Time spent blocked on the shard
        lock is added to ``timings["lock_wait"]`` when a dict is passed.
        """
        with self._stats_lock:
            self.stats.requests += 1
        known = self.class_for_url(url)
        if known is not None:
            self._note_hit(known)
            return known, False

        parts = self._rulebook.partition(url)
        shard = self._shard_lock(parts.key)
        entered = perf_counter()
        shard.acquire()
        if timings is not None:
            timings["lock_wait"] = (
                timings.get("lock_wait", 0.0) + perf_counter() - entered
            )
        try:
            # Double-check under the shard lock: a racing request for the
            # same URL may have grouped it while we waited.
            known = self.class_for_url(url)
            if known is not None:
                self._note_hit(known)
                return known, False

            manual = self._match_manual(url)
            if manual is not None:
                self._adopt(manual, url)
                with self._stats_lock:
                    self.stats.manual += 1
                return manual, False

            # One signature per searched document.  It drives candidate
            # lookup and, when the search fails, becomes
            # the new class's registered signature for free (the document
            # is adopted as that class's base).
            signature = (
                self._sketcher.signature(document)
                if self._sketcher is not None
                else None
            )

            match = self._search(parts, document, signature)
            if match is not None:
                self._adopt(match, url)
                with self._stats_lock:
                    self.stats.matched += 1
                return match, False

            cls = self.create_class(parts)
            self._adopt(cls, url)
            if signature is not None and self._sketch_index is not None:
                with cls.lock:
                    cls.presketch(document, signature)
                self._sketch_index.register(cls.class_id, signature)
            with self._stats_lock:
                self.stats.created += 1
            return cls, True
        finally:
            shard.release()

    def _match_manual(self, url: str) -> DocumentClass | None:
        with self._registry_lock:
            rules = list(self._manual_rules)
        for pattern, class_id in rules:
            if pattern.match(url):
                return self._classes[class_id]
        return None

    def _note_hit(self, cls: DocumentClass) -> None:
        """Count one request against a class, checkpointing popularity."""
        with cls.lock:
            cls.stats.hits += 1
            hits = cls.stats.hits
        # The per-request fast path: one modulo, the store only every Nth hit.
        if self._store is not None and hits % HIT_JOURNAL_STRIDE == 0:
            self._store.record_hits(cls.class_id, hits)

    def _adopt(self, cls: DocumentClass, url: str) -> None:
        with cls.lock:
            cls.add_member(url)
            cls.stats.hits += 1
            hits = cls.stats.hits
        with self._registry_lock:
            self._url_to_class[url] = cls.class_id
        if self._store is not None:
            self._store.add_member(cls.class_id, url)
            if hits % HIT_JOURNAL_STRIDE == 0:
                self._store.record_hits(cls.class_id, hits)

    def refresh_sketch(self, cls: DocumentClass) -> "tuple[int, ...] | None":
        """Re-register ``cls`` in the LSH index if its match base changed.

        Caller holds ``cls.lock`` (the engine's ingest path) or owns the
        class exclusively (warm restart).  Cheap when nothing changed: the
        signature lives on the base record, so the common case is two
        attribute reads.  Returns the current signature (what the store
        should persist alongside the committed base), or None for the scan
        reference / a base-less class.
        """
        if self._sketch_index is None or self._sketcher is None:
            return None
        base = cls.match_base
        if base is None:
            # Unregister unconditionally (it is idempotent): a base-less
            # class must not linger in the candidate index.
            self._sketch_index.unregister(cls.class_id)
            return None
        if base.signature is None:
            base.signature = self._sketcher.signature(base.body)
            self._sketch_index.register(cls.class_id, base.signature)
        return base.signature

    def _search(
        self,
        parts: URLParts,
        document: bytes,
        signature: "tuple[int, ...] | None" = None,
    ) -> DocumentClass | None:
        if signature is not None:
            eligible = self._sketch_eligible(parts, signature)
        else:
            eligible = self._eligible(parts)
        if not eligible:
            return None
        threshold = self._config.match_threshold * len(document)
        best: DocumentClass | None = None
        best_estimate = math.inf
        best_tries = 0
        tries = 0
        for cls in self._probe_order(eligible, self._shard_rng(parts.key)):
            if tries >= self._config.max_tries:
                break
            estimate = self._estimate(cls, document)
            if estimate is None:
                continue  # class has no base yet; not probeable
            tries += 1
            with self._stats_lock:
                self.stats.total_tries += 1
            if estimate <= threshold:
                if self._config.first_match:
                    self._record_tries(tries)
                    return cls
                if estimate < best_estimate:
                    # Remember the probe count *at which* the best match
                    # surfaced; recording the loop-final count inflated
                    # the tries histogram in best-match mode.
                    best, best_estimate, best_tries = cls, estimate, tries
        if best is not None:
            self._record_tries(best_tries)
        return best

    def _record_tries(self, tries: int) -> None:
        with self._stats_lock:
            self.stats.tries_histogram[tries] = (
                self.stats.tries_histogram.get(tries, 0) + 1
            )

    def _eligible(self, parts: URLParts) -> list[DocumentClass]:
        """Heuristic 2: restrict to same-hint classes when any exist."""
        with self._registry_lock:
            same_hint = self._by_key.get(parts.key)
            if same_hint:
                return list(same_hint)
            return list(self._by_server.get(parts.server, ()))

    def _sketch_eligible(
        self, parts: URLParts, signature: tuple[int, ...]
    ) -> list[DocumentClass]:
        """Sketch candidate selection (replaces the full scan).

        Same-hint pools no larger than the probe budget are returned
        whole — probing them all is already O(1), and it keeps heuristic
        2's recall even when a hinted class's base drifted away from the
        request's content.  Larger hinted pools are narrowed to the LSH
        candidates inside them (falling back to the whole pool when the
        sketch knows none of them).  With no same-hint class at all, the
        LSH lookup *replaces* the same-server scan: only classes whose
        base content collides with the document in at least one band are
        considered, in O(candidates) instead of O(classes).
        """
        assert self._sketch_index is not None
        with self._registry_lock:
            same_hint = self._by_key.get(parts.key)
            hinted = list(same_hint) if same_hint else None
        if hinted is not None and len(hinted) <= self._config.max_tries:
            return hinted
        candidate_ids = self._sketch_index.candidates(signature)
        if hinted is not None:
            hint_ids = {cls.class_id for cls in hinted}
            eligible = [
                self._classes[cid] for cid in candidate_ids if cid in hint_ids
            ]
            self._note_sketch(len(eligible))
            return eligible or hinted
        server = parts.server
        eligible = []
        for cid in candidate_ids:
            # Lock-free dict read, same contract as class_for_url: classes
            # are never deleted and dict reads are atomic.
            cls = self._classes.get(cid)
            if cls is not None and cls.server == server:
                eligible.append(cls)
        self._note_sketch(len(eligible))
        return eligible

    def _note_sketch(self, candidates: int) -> None:
        """Record one LSH lookup's outcome."""
        with self._stats_lock:
            if candidates:
                self.stats.sketch_hits += 1
            else:
                self.stats.sketch_misses += 1
        if self._metrics is not None:
            self._metrics.observe(
                "grouping_sketch_candidates",
                candidates,
                help="candidate classes returned per LSH sketch lookup",
            )

    def _probe_order(
        self, eligible: list[DocumentClass], rng: random.Random
    ) -> list[DocumentClass]:
        """Heuristic 3: ``a·N`` most popular first, then random others."""
        n = self._config.max_tries
        popular_quota = math.ceil(self._config.popular_fraction * n)
        by_popularity = sorted(eligible, key=lambda c: c.popularity, reverse=True)
        head = by_popularity[:popular_quota]
        rest = by_popularity[popular_quota:]
        if rest:
            sample_size = min(len(rest), n - len(head))
            tail = rng.sample(rest, sample_size) if sample_size > 0 else []
        else:
            tail = []
        return head + tail

    def _estimate(self, cls: DocumentClass, document: bytes) -> int | None:
        """Estimated delta between the class base and ``document``.

        Only the cached-index lookup holds the candidate's class lock;
        the estimate runs against the immutable index outside it, so a
        cross-shard probe never blocks another shard's pipeline for the
        duration of a diff.
        """
        with cls.lock:
            base = cls.match_base
            index = (
                base.light_index(self._estimator)
                if base is not None and base.body
                else None
            )
        if index is None:
            return None
        return self._estimator.estimate_with_index(index, document)
