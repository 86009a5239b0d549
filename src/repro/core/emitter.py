"""Emission contexts for the partial-synchronization API.

The paper's API (§IV) extends the traditional ``Emit()`` /
``EmitIntermediate()`` data-flow functions with local equivalents:

    "We introduce their local equivalents — EmitLocal() and
    EmitLocalIntermediate().  Function lreduce operates on the data
    emitted through EmitLocalIntermediate().  At the end of local
    iterations, the output through EmitLocal() is sent to the greduce;
    otherwise, lmap receives it as input."

:class:`LocalMapContext` and :class:`LocalReduceContext` realise exactly
that routing, over the in-memory hashtable the implementation section
describes ("A hashtable is used to store the intermediate and final
results of the local MapReduce", §V-A).
"""

from __future__ import annotations

from typing import Any

__all__ = ["LocalMapContext", "LocalReduceContext"]


class LocalMapContext:
    """Context passed to ``lmap``; collects EmitLocalIntermediate output."""

    __slots__ = ("_intermediate", "_ops")

    def __init__(self) -> None:
        self._intermediate: list[tuple[Any, Any]] = []
        self._ops: float = 0.0

    def emit_local_intermediate(self, key: Any, value: Any) -> None:
        """The paper's ``EmitLocalIntermediate()``: feed the local reduce."""
        self._intermediate.append((key, value))
        self._ops += 1.0

    def add_ops(self, n: float) -> None:
        """Account extra operations (for vectorised lmap bodies)."""
        if n < 0:
            raise ValueError("ops must be >= 0")
        self._ops += n

    @property
    def intermediate(self) -> list[tuple[Any, Any]]:
        return self._intermediate

    @property
    def ops(self) -> float:
        return self._ops


class LocalReduceContext:
    """Context passed to ``lreduce``; collects EmitLocal output.

    EmitLocal writes into the local hashtable: the pairs become the next
    local iteration's lmap input, or — at local convergence — the gmap's
    EmitIntermediate payload headed for the global reduce.
    """

    __slots__ = ("_local", "_ops")

    def __init__(self) -> None:
        self._local: list[tuple[Any, Any]] = []
        self._ops: float = 0.0

    def emit_local(self, key: Any, value: Any) -> None:
        """The paper's ``EmitLocal()``."""
        self._local.append((key, value))
        self._ops += 1.0

    def add_ops(self, n: float) -> None:
        if n < 0:
            raise ValueError("ops must be >= 0")
        self._ops += n

    @property
    def local_output(self) -> list[tuple[Any, Any]]:
        return self._local

    @property
    def ops(self) -> float:
        return self._ops

