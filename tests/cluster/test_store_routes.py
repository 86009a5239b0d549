"""``OnlineStateStore`` prices through cached per-partition routes.

``consume``, ``publish`` and the round trip walk one ``(tablet, factor)``
route per partition, cached until the tablet map changes, in one pass
that also checks the vector (a vector that passes is then folded into
the load profile), instead of locating each partition's key range with
two bisects on every call.
The reference below is the uncached formula they replaced; across splits
and merges every charge, every tablet's bytes and every split point must
equal it to the bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import EC2_DEFAULTS, OnlineStateStore
from repro.cluster.costmodel import ONLINE_STORE_MODEL
from repro.cluster.statestore import _validated
from tests.cluster.test_statestore import tablet_load


class UncachedStore(OnlineStateStore):
    """Locates every partition's tablets afresh on every call."""

    def shard_bytes(self, partition_bytes):
        pb = _validated(partition_bytes)
        bounds = self.boundaries
        out = [0.0] * self.num_tablets
        P = len(pb)
        for p, b in enumerate(pb):
            if b == 0:
                continue
            lo, hi = p / P, (p + 1) / P
            t_first, t_last = self._range_tablets(lo, hi)
            if t_first == t_last:
                out[t_first] += b
                continue
            for t in range(t_first, t_last + 1):
                overlap = min(hi, bounds[t + 1]) - max(lo, bounds[t])
                out[t] += b * (overlap * P)
        return out

    def _note_profile(self, pb):
        """Fold one validated byte vector into the load profile."""
        if not pb:
            return
        profile = self._profile_of(len(pb))
        for p, b in enumerate(pb):
            if b:
                profile[p] = profile.get(p, 0.0) + b

    def _serve(self, partition_bytes, seconds, *, share):
        """One round's write or read: every tablet priced at its
        uncached load, idle tablets included."""
        self._note_profile(_validated(partition_bytes))
        tb = self.shard_bytes(partition_bytes)
        secs = [seconds(b, share=share) for b in tb]
        for t, (b, s) in enumerate(zip(tb, secs)):
            self.tablet_bytes[t] += int(b)
            self.last_round_tablet_seconds[t] += s
        return max(secs)

    def _priced(self, vec, seconds, share):
        self._note_profile(_validated(vec))
        secs = 0.0
        for t, b in enumerate(self.shard_bytes(vec)):
            if b == 0:
                continue
            self.tablet_bytes[t] += int(b)
            secs = max(secs, seconds(b, share=share))
        return secs

    def publish(self, partition, nbytes, *, version, num_partitions, share=1.0):
        vec = [0.0] * num_partitions
        vec[partition] = float(nbytes)
        secs = self._priced(vec, ONLINE_STORE_MODEL.write_seconds, share)
        self.versions[partition] = max(version, self.versions.get(partition, 0))
        self._maybe_split()
        return secs

    def consume(self, partition_bytes, *, share=1.0):
        secs = self._priced(partition_bytes, ONLINE_STORE_MODEL.read_seconds, share)
        self._maybe_split()
        return secs


def ledger(store):
    return (store.boundaries, store.tablet_bytes, store.last_round_tablet_seconds,
            store.split_events, store.merge_events, store.tablet_map_version,
            store.versions, store._profile)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_routes_price_like_the_uncached_formula(seed):
    rng = np.random.default_rng(seed)
    kwargs = dict(split_threshold=30_000.0, merge_threshold=9_000.0,
                  max_tablets=12)
    cached, plain = OnlineStateStore(8, **kwargs), UncachedStore(8, **kwargs)
    version = {}
    for step in range(400):
        P = int(rng.choice([5, 7, 24]))
        # zero entries, and a hot key range that leaves the rest of the
        # map cold enough to merge
        vec = rng.pareto(1.5, P) * rng.choice([0.0, 300.0, 2_000.0], P)
        vec[P // 3:] *= rng.random() < 0.2
        share = float(rng.choice([1.0, 0.5, 0.25]))
        kind = rng.integers(3)
        if kind == 0:
            got = cached.consume(vec.tolist(), share=share)
            want = plain.consume(vec.tolist(), share=share)
        elif kind == 1:
            p = int(rng.integers(P))
            version[p] = version.get(p, 0) + 1
            args = dict(version=version[p], num_partitions=P, share=share)
            got = cached.publish(p, float(vec[p]), **args)
            want = plain.publish(p, float(vec[p]), **args)
        else:
            args = dict(cost_model=EC2_DEFAULTS, share=share)
            got = cached.round_trip(vec.tolist(), **args)
            want = plain.round_trip(vec.tolist(), **args)
        assert got == want, step
        assert tablet_load(cached, vec) == plain.shard_bytes(vec), step
        assert ledger(cached) == ledger(plain), step
    # the map did change under the cached routes, both ways
    assert cached.split_events and cached.merge_events


def test_a_route_is_rebuilt_when_the_map_changes():
    store = OnlineStateStore(2, split_threshold=500.0)
    before = tablet_load(store, [600.0, 600.0, 600.0])
    store.consume([600.0, 600.0, 600.0])          # crosses the threshold
    assert store.tablet_map_version > 0
    after = tablet_load(store, [600.0, 600.0, 600.0])
    assert len(after) == store.num_tablets > len(before)
    assert after == UncachedStore.shard_bytes(store, [600.0] * 3)


def test_negative_bytes_are_rejected():
    store = OnlineStateStore(4)
    with pytest.raises(ValueError):
        store.consume([1.0, -1.0])
    with pytest.raises(ValueError):
        tablet_load(store, [-2.0])


@pytest.mark.parametrize("charge", ["round_trip", "consume"])
@pytest.mark.parametrize("before", [[], [5.0, 7.0], [3.0, 0.0, 4.0]])
def test_a_rejected_vector_leaves_the_profile_as_it_was(charge, before):
    """The vector is checked before any of it is folded in: a negative
    entry after a positive one leaves the profile (and its partition
    count) untouched, even when the rejected vector has another shape."""
    store = OnlineStateStore(2)
    if before:
        store.consume(before)
    profile, parts = dict(store._profile), store._profile_parts
    kwargs = {"cost_model": EC2_DEFAULTS} if charge == "round_trip" else {}
    with pytest.raises(ValueError, match=">= 0"):
        getattr(store, charge)([100.0, -1.0], **kwargs)
    assert store._profile == profile
    assert store._profile_parts == parts
