"""Shared-memory columnar transport for the process executor.

The process pool's default transport pickles every task result through
a pipe — for a columnar job that means serialising, chunking, copying
and deserialising megabytes of ``ColumnarBlock`` arrays per round.
This module replaces the array payload with a POSIX shared-memory
segment: the producer writes the raw buffers once into a named segment
through its descriptor (``pwrite``; it maps nothing) and ships only the
*name plus dtype/shape metadata* (a tiny pickle); the consumer opens it
by name and reads the arrays *in place*, as views of a private
copy-on-write mapping that the arrays themselves own.  One copy in,
none out, zero pipe traffic for the data.  ``docs/shm_transport.md``
is the contract (Linux tmpfs is assumed: POSIX shm elsewhere need not
support ``write``).

Ownership is driver-side and explicit, by name; nothing here talks to
``multiprocessing``'s resource tracker, so a pooled worker's exit
cannot unlink what the driver still needs.  Every name is a function of
the run and the attempt that parks it (``{prefix}m{i}a{a}p{r}`` /
``{prefix}r{i}a{a}`` / ``{prefix}f`` / ``{prefix}rf`` / ``{prefix}s``),
so the driver's ledger of spawned attempts names every segment a run
can leave, and :meth:`SegmentRegistry.sweep` unlinks them all when the
run ends, completed or aborted:

* Map buckets are worker-created and never read by the driver.  Reduce
  tasks read them in place (``take(unlink=False)``), so a retried
  reduce attempt re-reads the same segments; they live until the sweep.
  An output a node death invalidates waits for the sweep too; a losing
  or doomed attempt's buckets are unlinked the moment its result is
  discarded.
* Reduce outputs are worker-created and consumed once: the driver
  unlinks each as it takes the block (:meth:`ShmBlockRef.take`).
* Driver-created segments (the parked job functions and the round's
  input splits, which every task attempt of the run re-reads) live
  until the sweep.
* ``{prefix}g{r}``, a reducer's pre-grouped input, has no live
  producer: only :func:`export_groups` callers outside the runtime
  make one.

Everything here is fork- and spawn-safe: refs carry only names and
metadata, and opening is by name.  Blocks below
:data:`SHM_MIN_BYTES` stay on the pickle path — for tiny payloads the
segment round trip (a handful of syscalls + mmap) costs more than it
saves.
"""

from __future__ import annotations

import _posixshmem
import mmap
import os
import pickle
import uuid
from typing import Any

import numpy as np

from repro.engine.columnar import ColumnarBlock, ColumnarGroups

__all__ = [
    "SHM_MIN_BYTES",
    "ShmBlockRef",
    "ShmGroupsRef",
    "ShmPickleRef",
    "ShmSplitRef",
    "SegmentRegistry",
    "export_block",
    "export_groups",
    "export_pickled",
    "export_splits",
]

#: Default minimum payload (bytes) before a block rides shared memory.
SHM_MIN_BYTES = 64 * 1024


def _align(n: int) -> int:
    return (n + 7) & ~7


def _write_segment(name: str, arrays: "list[np.ndarray]") -> "list[tuple]":
    """Create segment ``name``, write ``arrays`` into it back to back.

    Returns the per-array ``(shape, dtype_str, offset)`` specs.  The
    bytes go through the descriptor (``pwrite``), never through a
    mapping: the kernel allocates the tmpfs pages and copies in one
    pass, and a full ``/dev/shm`` is an ``OSError`` here — the partial
    segment unlinked, name and size in the message — where a store
    through a mapping would be a ``SIGBUS``.  The creator keeps no
    handle; consumers open by name.
    """
    specs: "list[tuple]" = []
    offset = 0
    for arr in arrays:
        specs.append((arr.shape, arr.dtype.str, offset))
        offset = _align(offset + arr.nbytes)
    size = max(offset, 1)
    fd = _posixshmem.shm_open(f"/{name}",
                              os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
    try:
        os.ftruncate(fd, size)
        for arr, (_, _, off) in zip(arrays, specs):
            data = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
            while len(data):  # pwrite may stop short of the whole array
                done = os.pwrite(fd, data, off)
                data, off = data[done:], off + done
    except OSError as exc:
        _posixshmem.shm_unlink(f"/{name}")
        raise OSError(exc.errno, f"shm segment {name} ({size} bytes): "
                                 f"{exc.strerror}") from exc
    finally:
        os.close(fd)
    return specs


def _read_segment(name: str, specs: "list[tuple]",
                  unlink: bool) -> "list[np.ndarray]":
    """Map ``name`` privately and return each spec'd array in place.

    The arrays are views of one copy-on-write mapping: writable, and a
    write reaches neither the segment nor any other reader, while an
    untouched page stays the page cache's.  They own the mapping — it
    is unmapped when the last of them dies, and it outlives the name,
    so ``unlink`` (and anyone else's unlink) is safe at any time.
    """
    fd = _posixshmem.shm_open(f"/{name}", os.O_RDONLY, mode=0o600)
    try:
        mapping = mmap.mmap(fd, 0, access=mmap.ACCESS_COPY)
    finally:
        os.close(fd)
    if unlink:
        _posixshmem.shm_unlink(f"/{name}")
    return [np.ndarray(shape, dtype=dtype, buffer=mapping, offset=off)
            for shape, dtype, off in specs]


class _ShmRef:
    """Base handle: a named segment plus array layout metadata."""

    __slots__ = ("name", "specs", "nbytes")

    def __init__(self, name: str, specs: "list[tuple]", nbytes: int) -> None:
        self.name = name
        self.specs = specs
        self.nbytes = nbytes

    def _arrays(self, *, unlink: bool) -> "list[np.ndarray]":
        return _read_segment(self.name, self.specs, unlink)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, nbytes={self.nbytes})"


class ShmBlockRef(_ShmRef):
    """A :class:`ColumnarBlock` parked in a shared-memory segment.

    ``dictionary`` (string-key vocab) still travels by pickle — it is
    vocabulary-sized, not record-sized.
    """

    __slots__ = ("dictionary",)

    def __init__(self, name: str, specs: "list[tuple]", nbytes: int,
                 dictionary: Any = None) -> None:
        super().__init__(name, specs, nbytes)
        self.dictionary = dictionary

    def __len__(self) -> int:
        return int(self.specs[0][0][0])

    def take(self, *, unlink: bool = True) -> ColumnarBlock:
        """The block, in place (private copy-on-write views).

        ``unlink`` removes the segment's name afterwards — how the driver
        consumes a reduce output; a reduce task reading its map buckets
        passes False (a retry re-reads them; the run's sweep unlinks
        them).
        """
        keys, values = self._arrays(unlink=unlink)
        return ColumnarBlock(keys, values, self.dictionary)


class ShmGroupsRef(_ShmRef):
    """A reducer's :class:`ColumnarGroups` parked in shared memory."""

    __slots__ = ("dictionary",)

    def __init__(self, name: str, specs: "list[tuple]", nbytes: int,
                 dictionary: Any = None) -> None:
        super().__init__(name, specs, nbytes)
        self.dictionary = dictionary

    def take(self, *, unlink: bool = False) -> ColumnarGroups:
        """The groups, in place (private copy-on-write views).

        Defaults to keeping the segment: reduce inputs must survive
        task retries, so only their owner unlinks them.
        """
        keys, values, starts, counts, order = self._arrays(unlink=unlink)
        return ColumnarGroups(keys=keys, values=values, starts=starts,
                              counts=counts, order=order,
                              dictionary=self.dictionary)


#: Worker-side cache of loaded :class:`ShmPickleRef` payloads, keyed by
#: segment name.  Names are unique per job run, so entries of any other
#: run are dead weight: :meth:`ShmPickleRef.load` drops them before it
#: loads, and a pooled worker holds at most one run's ``f`` / ``rf``.
_PICKLE_CACHE: "dict[str, Any]" = {}


def _run_prefix(name: str) -> str:
    """The per-run prefix of a segment name (``{prefix}f`` -> ``{prefix}``)."""
    return name[:name.rfind("-") + 1]


class ShmPickleRef(_ShmRef):
    """An arbitrary pickled object parked once per job run.

    The process pool's default transport re-pickles the job *function*
    into every task submission — for a map callable closing over
    per-partition arrays that is megabytes of identical bytes per
    round.  The driver parks one pickle in a segment instead; tasks
    carry this tiny ref, and each worker maps, loads and caches the
    object the first time it sees the name (task replays hit the
    cache).  The segment is driver-owned: it must outlive every retry,
    so only the run's sweep unlinks it.

    ``specs[0]`` is the pickle stream, the rest its protocol-5
    out-of-band buffers (the arrays the object closes over), so array
    bytes are written once into the segment and never pass through the
    pickle stream: the loaded arrays are private copy-on-write views of
    the worker's mapping — writable, invisible to every other reader —
    and a page nobody writes is shared by all of them.
    """

    __slots__ = ()

    def load(self) -> Any:
        obj = _PICKLE_CACHE.get(self.name, _PICKLE_CACHE)
        if obj is _PICKLE_CACHE:  # sentinel: not cached yet
            run = _run_prefix(self.name)
            for stale in [n for n in _PICKLE_CACHE if _run_prefix(n) != run]:
                del _PICKLE_CACHE[stale]
            # The loaded arrays keep the private mapping alive;
            # evicting the object unmaps it.
            obj = _unpickle(self._arrays(unlink=False))
            _PICKLE_CACHE[self.name] = obj
        return obj


class ShmSplitRef(_ShmRef):
    """One map task's input split, parked in its run's split segment.

    ``specs[0]`` is this split's own pickle stream, the rest the
    out-of-band buffers it refers to — which it may share with the other
    splits of the run (:func:`export_splits`).  :meth:`load` maps the
    segment and unpickles this stream alone, with no cache: each attempt
    reads the split afresh, as it would unpickle a submitted one.
    """

    __slots__ = ()

    def load(self) -> Any:
        return _unpickle(self._arrays(unlink=False))


def _unpickle(parts: "list[np.ndarray]") -> Any:
    """Load a stream over its out-of-band buffers.  The loaded arrays
    are views of the buffers, so they own the private mapping."""
    stream, *buffers = parts
    return pickle.loads(stream, buffers=buffers)


def _pickle_parts(obj: Any) -> "tuple[np.ndarray, list[np.ndarray]]":
    """``obj``'s protocol-5 pickle stream and its out-of-band buffers,
    as ``uint8`` views (the buffers still alias ``obj``'s arrays)."""
    buffers: "list[pickle.PickleBuffer]" = []
    stream = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return (np.frombuffer(stream, dtype=np.uint8),
            [np.frombuffer(b.raw(), dtype=np.uint8) for b in buffers])


def export_pickled(obj: Any, name: str,
                   min_bytes: int = SHM_MIN_BYTES) -> "ShmPickleRef | Any":
    """Park ``obj``'s pickle in a segment if it is big enough to pay.

    Small objects (named aggregations, thin callables) come back
    unchanged — per-task pickling of a few hundred bytes is cheaper
    than a segment round trip.
    """
    stream, buffers = _pickle_parts(obj)
    parts = [stream, *buffers]
    nbytes = sum(p.nbytes for p in parts)
    if nbytes < min_bytes:
        return obj
    return ShmPickleRef(name, _write_segment(name, parts), nbytes)


def export_splits(splits: "list", name: str,
                  min_bytes: int = SHM_MIN_BYTES) -> "list":
    """Park a run's input splits in one segment if they are big enough.

    Each split is pickled *alone*, so a map task unpickles its own
    split's Python objects and nobody else's.  Their out-of-band buffers
    are written once per distinct memory area — an array that every
    split carries (an iterative job's state vector) lands in the segment
    once, however many splits hold it.  Returns one
    :class:`ShmSplitRef` per split, or ``splits`` itself when the
    streams and distinct buffers together stay below ``min_bytes``.
    """
    parts: "list[np.ndarray]" = []
    #: (address, nbytes) of a buffer -> its index in ``parts``.
    written: "dict[tuple[int, int], int]" = {}
    layout: "list[list[int]]" = []
    for split in splits:
        stream, buffers = _pickle_parts(split)
        indices = [len(parts)]
        parts.append(stream)
        for buf in buffers:
            where = (buf.__array_interface__["data"][0], buf.nbytes)
            if where not in written:
                written[where] = len(parts)
                parts.append(buf)
            indices.append(written[where])
        layout.append(indices)
    if sum(p.nbytes for p in parts) < min_bytes:
        return splits
    specs = _write_segment(name, parts)
    return [ShmSplitRef(name, [specs[j] for j in indices],
                        sum(parts[j].nbytes for j in indices))
            for indices in layout]


def export_block(block: ColumnarBlock, name: str,
                 min_bytes: int = SHM_MIN_BYTES) -> "ShmBlockRef | ColumnarBlock":
    """Park ``block`` in a segment if it is big enough to pay its way."""
    payload = int(block.keys.nbytes + block.values.nbytes)
    if payload < min_bytes:
        return block
    specs = _write_segment(name, [block.keys, block.values])
    return ShmBlockRef(name, specs, block.nbytes, block.dictionary)


def export_groups(groups: ColumnarGroups, name: str,
                  min_bytes: int = SHM_MIN_BYTES
                  ) -> "ShmGroupsRef | ColumnarGroups":
    """Park one reducer's grouped input in a segment if big enough."""
    arrays = [groups.keys, groups.values, groups.starts, groups.counts,
              groups.order]
    payload = int(sum(a.nbytes for a in arrays))
    if payload < min_bytes:
        return groups
    specs = _write_segment(name, arrays)
    return ShmGroupsRef(name, specs, payload, groups.dictionary)


class SegmentRegistry:
    """Hands out the runtime's per-run name prefixes, and unlinks what a
    run parked under one.

    A prefix is ``reproshm-{driver pid:x}-{token}-{seq}-``, unique per
    runtime and run; perfbench's leak probe globs its pid part.
    """

    def __init__(self) -> None:
        self._token = f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self._seq = 0

    def new_prefix(self) -> str:
        """A unique per-job-run name prefix (process- and run-scoped)."""
        self._seq += 1
        return f"reproshm-{self._token}-{self._seq}-"

    def sweep(self, prefix: str,
              spawned: "list[tuple[str, int, int]]",
              num_reducers: int) -> int:
        """Unlink every segment the run under ``prefix`` can have parked.

        That is the driver's own ``f``, ``rf`` and ``s``, and whatever
        the ``spawned`` attempts parked: ``spawned`` is the driver's
        ledger of ``(phase, task, attempt number)``; a map attempt parks
        one bucket per reducer, a reduce attempt one output block.  A
        name already gone (taken, discarded, or never parked) costs one
        failed unlink.  Returns the number reclaimed.
        """
        names = [f"{prefix}{suffix}" for suffix in ("f", "rf", "s")]
        for phase, i, a in spawned:
            names += ([f"{prefix}m{i}a{a}p{r}" for r in range(num_reducers)]
                      if phase == "map" else [f"{prefix}r{i}a{a}"])
        return sum(_unlink_quietly(name) for name in names)


def _unlink_quietly(name: str) -> bool:
    """Unlink ``name`` if it exists; True when a segment was reclaimed."""
    try:
        _posixshmem.shm_unlink(f"/{name}")
    except FileNotFoundError:
        return False
    return True
