"""Base-file selection algorithms (paper Section IV).

A class needs one good base-file: the document that minimizes the expected
delta to the class members.  The paper compares three online schemes
(Table III) and we add the offline optimum as a reference:

* :class:`FirstResponsePolicy` — use whatever document created the class;
* :class:`RandomizedPolicy` — the paper's algorithm: sample responses with
  probability ``p``, keep at most ``K`` of them, serve the stored document
  minimizing the sum of deltas to the other stored documents, evict the one
  maximizing it (with the footnote-3 variants);
* :class:`OnlineOptimalPolicy` — keep *every* document seen so far and use
  the one minimizing the average delta so far ("online optimal" in
  Table III; memory-unbounded, baseline only);
* :func:`offline_best` — full-knowledge optimum over a finished sequence.

Policies operate on raw document bytes and a pluggable ``delta_size``
function, so Table III can measure them with the full differ while the
delta-server runs them with the cheap light estimator.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import OrderedDict
from typing import Callable, Protocol, Sequence

from repro.core.config import BaseFileConfig, EvictionVariant

DeltaSizeFn = Callable[[bytes, bytes], int]

_candidate_ids = itertools.count()


class BaseFilePolicy(Protocol):
    """Interface every base-file selection scheme implements."""

    name: str

    def observe(self, document: bytes, user_id: str | None = None) -> None:
        """Feed one response body (and its requesting user) from the stream."""

    def current(self) -> bytes | None:
        """The document the policy would use as base-file right now."""

    def current_owner(self) -> str | None:
        """User whose request produced :meth:`current` (anonymization must
        exclude the base-file's own user, paper footnote 5)."""

    def flush(self) -> None:
        """Drop accumulated candidates (basic-rebase, paper Section IV)."""


class FirstResponsePolicy:
    """Use the first response ever seen as the base-file, forever.

    The paper's strawman: "depending on the web-site and the request
    sequence, the performance ... can be very bad".
    """

    name = "first-response"

    def __init__(self) -> None:
        self._first: bytes | None = None
        self._owner: str | None = None

    def observe(self, document: bytes, user_id: str | None = None) -> None:
        if self._first is None:
            self._first = document
            self._owner = user_id

    def current(self) -> bytes | None:
        return self._first

    def current_owner(self) -> str | None:
        return self._owner

    def flush(self) -> None:
        self._first = None
        self._owner = None


class _Candidate:
    """A stored document plus its deltas to the measurement set."""

    __slots__ = ("doc", "deltas", "id", "key", "owner")

    def __init__(
        self, doc: bytes, owner: str | None = None, key: bytes | None = None
    ) -> None:
        self.doc = doc
        self.id = next(_candidate_ids)
        self.owner = owner
        # content digest: byte-identical documents share one key, so a size
        # measured for one (base, target) content pair serves every copy
        if key is None:
            key = hashlib.blake2b(doc, digest_size=16).digest()
        self.key = key
        # delta sizes keyed by the *other* document's candidate id
        self.deltas: dict[int, int] = {}

    def utility(self) -> float:
        """Mean delta to the documents measured against: lower is a better
        base-file (the paper's local utility).  A mean, not a sum, so
        candidates measured against different numbers of documents
        (``TWO_SET``) rank fairly; 0 when nothing was measured yet."""
        if not self.deltas:
            return 0.0
        return sum(self.deltas.values()) / len(self.deltas)


class RandomizedPolicy:
    """The paper's randomized online base-file algorithm.

    1. Sample each request with probability ``p`` and store the document.
    2. Use as base-file the stored document minimizing the sum of deltas to
       the other stored documents (ranked by their mean, which orders
       alike while every candidate has as many deltas).
    3. Keep at most ``K``; on overflow evict the document maximizing the
       sum of deltas — or one of the footnote-3 variants:

       * ``PERIODIC_RANDOM``: every ``random_evict_period``-th eviction,
         evict a random stored document (never the current best) to avoid
         the store clustering around near-duplicates;
       * ``TWO_SET``: keep a second, independent set of ``K`` random
         samples and measure candidates against *it*, so the measurement
         set cannot collapse onto the candidate set.

    Every size goes through :meth:`_measure`, which remembers it per
    (base, target) content pair: admission and the rebase hysteresis keep
    re-measuring the same few documents against each other, and
    ``delta_size`` is a pure function of its two inputs.
    """

    name = "randomized"

    def __init__(
        self,
        config: BaseFileConfig,
        delta_size: DeltaSizeFn,
        rng: random.Random,
    ) -> None:
        self._config = config
        self._delta_size = delta_size
        self._rng = rng
        self._candidates: list[_Candidate] = []
        self._references: list[_Candidate] = []  # TWO_SET only
        self._evictions = 0
        # (base key, target key) -> size, least recently used first.  The cap
        # is four times the K² pairs a full store measures, so the pairs of
        # residents that left recently (and the rebase probes) still hit;
        # callers hold the class lock, so the table needs no lock of its own.
        self._sizes: OrderedDict[tuple[bytes, bytes], int] = OrderedDict()
        self._sizes_cap = 4 * config.capacity**2

    # -- policy interface --------------------------------------------------

    def observe(self, document: bytes, user_id: str | None = None) -> None:
        if self._rng.random() >= self._config.sample_probability:
            return
        self._admit(_Candidate(document, owner=user_id))

    def current(self) -> bytes | None:
        if not self._candidates:
            return None
        return min(self._candidates, key=_Candidate.utility).doc

    def current_owner(self) -> str | None:
        if not self._candidates:
            return None
        return min(self._candidates, key=_Candidate.utility).owner

    def flush(self) -> None:
        self._candidates.clear()
        self._references.clear()

    def utility_of(self, document: bytes) -> float | None:
        """Mean delta from ``document`` to the measurement set.

        Lets the rebase controller compare an arbitrary incumbent base-file
        against the policy's preferred candidate on equal footing.  One
        occurrence of ``document`` itself is excluded from the measurement
        set (a stored candidate must not get a free zero-delta against
        itself).  ``None`` when there is nothing to measure against.
        """
        probe = _Candidate(document)
        skipped_self = False
        total = 0
        count = 0
        for ref in self._measurement_set():
            if not skipped_self and ref.key == probe.key:
                skipped_self = True
                continue
            total += self._measure(probe, ref)
            count += 1
        if count == 0:
            return None
        return total / count

    # -- internals -----------------------------------------------------------

    @property
    def stored_documents(self) -> list[bytes]:
        """Candidate documents currently stored (diagnostics/tests)."""
        return [c.doc for c in self._candidates]

    def _measurement_set(self) -> list[_Candidate]:
        if self._config.eviction is EvictionVariant.TWO_SET:
            return self._references
        return self._candidates

    def _measure(self, base: _Candidate, target: _Candidate) -> int:
        """``delta_size(base.doc, target.doc)``, computed once per content pair
        while the pair stays among the table's most recent ``4·K²``."""
        pair = (base.key, target.key)
        size = self._sizes.get(pair)
        if size is not None:
            self._sizes.move_to_end(pair)
            return size
        size = self._delta_size(base.doc, target.doc)
        self._sizes[pair] = size
        if len(self._sizes) > self._sizes_cap:
            self._sizes.popitem(last=False)
        return size

    def _admit(self, candidate: _Candidate) -> None:
        if self._config.eviction is EvictionVariant.TWO_SET:
            self._admit_two_set(candidate)
            return
        # Measure the newcomer against current residents and vice versa.
        for other in self._candidates:
            candidate.deltas[other.id] = self._measure(candidate, other)
            other.deltas[candidate.id] = self._measure(other, candidate)
        self._candidates.append(candidate)
        if len(self._candidates) > self._config.capacity:
            self._evict()

    def _admit_two_set(self, candidate: _Candidate) -> None:
        reference = _Candidate(candidate.doc, key=candidate.key)
        # New candidate measured against the reference set.
        for ref in self._references:
            candidate.deltas[ref.id] = self._measure(candidate, ref)
        # Existing candidates gain a measurement against the new reference.
        for existing in self._candidates:
            existing.deltas[reference.id] = self._measure(existing, reference)
        self._candidates.append(candidate)
        self._references.append(reference)
        if len(self._candidates) > self._config.capacity:
            worst = max(self._candidates, key=_Candidate.utility)
            self._remove_candidate(worst)
        if len(self._references) > self._config.capacity:
            victim = self._rng.choice(self._references)
            self._references.remove(victim)
            for existing in self._candidates:
                existing.deltas.pop(victim.id, None)

    def _evict(self) -> None:
        self._evictions += 1
        period = self._config.random_evict_period
        if (
            self._config.eviction is EvictionVariant.PERIODIC_RANDOM
            and period > 0
            and self._evictions % period == 0
        ):
            best = min(self._candidates, key=_Candidate.utility)
            pool = [c for c in self._candidates if c is not best]
            victim = self._rng.choice(pool)
        else:
            victim = max(self._candidates, key=_Candidate.utility)
        self._remove_candidate(victim)

    def _remove_candidate(self, victim: _Candidate) -> None:
        self._candidates.remove(victim)
        for other in self._candidates:
            other.deltas.pop(victim.id, None)


class OnlineOptimalPolicy:
    """Keep everything; use the document minimizing the average delta so far.

    Table III's "Online Optimal" column.  Cost grows linearly per request in
    both memory and delta computations — exactly the impracticality the
    randomized algorithm exists to avoid — so it is a baseline, not a
    deployable policy.  ``max_documents`` caps the store as a safety net.
    """

    name = "online-optimal"

    def __init__(
        self, delta_size: DeltaSizeFn, max_documents: int | None = None
    ) -> None:
        self._delta_size = delta_size
        self._max_documents = max_documents
        self._docs: list[bytes] = []
        self._sums: list[int] = []
        self._owners: list[str | None] = []

    def observe(self, document: bytes, user_id: str | None = None) -> None:
        if self._max_documents is not None and len(self._docs) >= self._max_documents:
            return
        new_sum = 0
        for i, existing in enumerate(self._docs):
            self._sums[i] += self._delta_size(existing, document)
            new_sum += self._delta_size(document, existing)
        self._docs.append(document)
        self._sums.append(new_sum)
        self._owners.append(user_id)

    def _best_index(self) -> int | None:
        if not self._docs:
            return None
        return min(range(len(self._docs)), key=self._sums.__getitem__)

    def current(self) -> bytes | None:
        best = self._best_index()
        return None if best is None else self._docs[best]

    def current_owner(self) -> str | None:
        best = self._best_index()
        return None if best is None else self._owners[best]

    def flush(self) -> None:
        self._docs.clear()
        self._sums.clear()
        self._owners.clear()


def offline_best(
    documents: Sequence[bytes], delta_size: DeltaSizeFn
) -> tuple[int, bytes]:
    """Full-knowledge optimum: the document minimizing the sum of deltas.

    The "ideal ... offline algorithm" the paper defines but cannot run
    online.  O(n²) delta computations; reference for tests and ablations.
    """
    if not documents:
        raise ValueError("offline_best needs at least one document")
    best_index = 0
    best_sum: int | None = None
    for i, base in enumerate(documents):
        total = sum(
            delta_size(base, other) for j, other in enumerate(documents) if j != i
        )
        if best_sum is None or total < best_sum:
            best_sum = total
            best_index = i
    return best_index, documents[best_index]


def make_policy(
    name: str,
    config: BaseFileConfig,
    delta_size: DeltaSizeFn,
    rng: random.Random,
    max_documents: int | None = None,
) -> BaseFilePolicy:
    """Factory keyed by policy name (used by benches and config files)."""
    if name == FirstResponsePolicy.name:
        return FirstResponsePolicy()
    if name == RandomizedPolicy.name:
        return RandomizedPolicy(config, delta_size, rng)
    if name == OnlineOptimalPolicy.name:
        return OnlineOptimalPolicy(delta_size, max_documents)
    raise ValueError(f"unknown base-file policy {name!r}")
