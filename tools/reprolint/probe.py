"""Runtime property probes for combine functions.

Static rules (:mod:`tools.reprolint.rules`) catch syntactic smells; the
probes here check the *semantic* contract directly: a combine function
folds partial aggregates that arrive in arbitrary order and grouping,
so permuting or regrouping its inputs must not change its output.
That property is what licenses map-side combining today and the
arbitrary-arrival asynchronous discipline the ROADMAP's ``AsyncBackend``
will add.

:func:`probe_commutative` exercises a combiner against random
permutations and regroupings of sampled value lists.  It accepts every
spelling the engine does:

* a named aggregation string (``"sum"`` / ``"min"`` / ``"max"``),
* a classic ``fn(key, values, ctx)`` function emitting via ``ctx``,
* a plain fold ``fn(values) -> value``.

Floating-point folds are compared with tolerances (permutations of a
float sum differ in the last ulps by design), so the probe checks
*semantic* order-insensitivity, not bit equality.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ProbeResult",
    "probe_commutative",
    "probe_permutation_invariant",
    "results_equal",
]


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one property probe."""

    #: Human-readable name of the probed function.
    function: str
    #: Number of (sample, permutation/regrouping) checks executed.
    checks: int
    #: Descriptions of every failed check (empty when the probe passed).
    failures: "tuple[str, ...]" = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"probe({self.function}): {self.checks} checks, {status}"


def results_equal(a: Any, b: Any, *, rtol: float = 1e-9,
                  atol: float = 1e-12) -> bool:
    """Recursive equality with float tolerance.

    Floats and float arrays compare with ``rtol``/``atol``; sequences
    compare elementwise; everything else compares with ``==``.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.shape != b_arr.shape:
            return False
        if a_arr.dtype.kind in "fc" or b_arr.dtype.kind in "fc":
            return bool(np.allclose(a_arr, b_arr, rtol=rtol, atol=atol,
                                    equal_nan=True))
        return bool(np.array_equal(a_arr, b_arr))
    if isinstance(a, float) or isinstance(b, float):
        try:
            return bool(np.isclose(a, b, rtol=rtol, atol=atol,
                                   equal_nan=True))
        except TypeError:
            return a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(results_equal(a[k], b[k], rtol=rtol, atol=atol)
                        for k in a))
    if (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))):
        return (len(a) == len(b)
                and all(results_equal(x, y, rtol=rtol, atol=atol)
                        for x, y in zip(a, b)))
    return a == b


class _Pairs(list):
    """Marker for a multi-emission combiner result (not regroupable)."""


class _CaptureCtx:
    """Minimal TaskContext stand-in: records emissions, counts nothing."""

    __slots__ = ("pairs",)

    def __init__(self) -> None:
        self.pairs: "list[tuple[Any, Any]]" = []

    def emit(self, key: Any, value: Any) -> None:
        self.pairs.append((key, value))

    # Accounting hooks job functions may call; no-ops here.
    def incr(self, counter: str, amount: int = 1) -> None:
        pass

    def add_ops(self, n: float) -> None:
        pass


def _fold_for(fn: Any, trial_values: list
              ) -> "tuple[str, Callable[[Any, list], Any]]":
    """Normalise a combiner spelling to ``(name, fold(key, values))``."""
    if isinstance(fn, str):
        from repro.engine.columnar import resolve_agg

        ufunc = resolve_agg(fn)

        def agg_fold(key: Any, values: list) -> Any:
            return ufunc.reduce(np.asarray(values, dtype=np.float64))

        return f"agg:{fn}", agg_fold

    if not callable(fn):
        raise TypeError(
            f"combine function must be callable or a named aggregation, "
            f"got {type(fn).__name__}")
    name = getattr(fn, "__qualname__", None) or type(fn).__name__

    def ctx_fold(key: Any, values: list) -> Any:
        ctx = _CaptureCtx()
        out = fn(key, list(values), ctx)
        if len(ctx.pairs) == 1:
            # The canonical combiner shape: one partial per key.  Return
            # the bare value so regroupings can feed partials back in.
            return ctx.pairs[0][1]
        if ctx.pairs:
            # Multi-emission: compare in a canonical order; regrouping
            # is skipped for these (partials are not re-foldable).
            return _Pairs(sorted(ctx.pairs, key=repr))
        return out

    def plain_fold(key: Any, values: list) -> Any:
        return fn(list(values))

    # Classic (key, values, ctx) vs plain values->value fold: decide by
    # trying the 3-arg form once on the first sample — signature
    # inspection misleads for builtins, *args, and bound methods.
    try:
        ctx_fold(0, list(trial_values))
    except TypeError:
        try:
            plain_fold(0, list(trial_values))
        except TypeError:
            raise TypeError(
                f"cannot call {name}: expected fn(key, values, ctx) or "
                f"fn(values)") from None
        except Exception:
            pass  # called fine, failed in the body: plain spelling
        return name, plain_fold
    except Exception:
        pass  # called fine, failed in the body: classic spelling
    return name, ctx_fold


def _default_samples(rng: random.Random) -> "list[list[Any]]":
    """Value lists spanning the shapes combiners see in practice."""
    samples: "list[list[Any]]" = [
        [1.0], [0.0, 0.0], [1, 2, 3, 4, 5],
        [-3.5, 2.25, 7.75, -1.0], [1e6, -1e6, 3.0, 4.0],
    ]
    for n in (2, 3, 7, 16):
        samples.append([rng.uniform(-100.0, 100.0) for _ in range(n)])
        samples.append([rng.randrange(-50, 50) for _ in range(n)])
    return samples


def _regroupings(values: list, rng: random.Random,
                 rounds: int) -> "list[list[list]]":
    """Random partitions of ``values`` into contiguous chunks."""
    out = []
    for _ in range(rounds):
        if len(values) < 2:
            out.append([list(values)])
            continue
        cuts = sorted(rng.sample(range(1, len(values)),
                                 rng.randrange(1, len(values))))
        out.append([values[a:b] for a, b in
                    itertools.pairwise([0, *cuts, len(values)])])
    return out


def probe_commutative(fn: Any,
                      samples: "Optional[Sequence[Sequence[Any]]]" = None,
                      *, rounds: int = 8, seed: int = 2010,
                      rtol: float = 1e-9, atol: float = 1e-12,
                      key: Any = 0, regroup: bool = True) -> ProbeResult:
    """Check that a combiner is order- and grouping-insensitive.

    For every sample value list the probe compares the fold of the
    original order against ``rounds`` random permutations (commutativity)
    and ``rounds`` random regroupings folded in two stages — chunks
    first, then the chunk results (associativity + idempotence of the
    combine with respect to itself, i.e. the map-side-combining
    contract).

    Parameters
    ----------
    fn:
        Combiner in any engine spelling (see module docstring).
    samples:
        Value lists to fold; defaults to a built-in deterministic mix of
        float and int lists.
    rounds:
        Permutations and regroupings tried per sample.
    seed:
        Seed for the sample/permutation RNG — the probe itself obeys the
        determinism rules it enforces.
    key:
        Key passed to classic ``(key, values, ctx)`` combiners.
    regroup:
        Also check two-stage regrouped folds.  Disable for combiners
        that are order-insensitive but not decomposable — e.g. a
        ``",".join(sorted(values))`` whose partials are strings, not
        re-foldable values.

    Returns
    -------
    ProbeResult
        ``result.ok`` is True when every check agreed within tolerance.
    """
    rng = random.Random(seed)
    if samples is None:
        samples = _default_samples(rng)
    samples = [list(s) for s in samples]
    name, fold = _fold_for(fn, samples[0] if samples else [1.0, 2.0])

    checks = 0
    failures: "list[str]" = []
    for sample in samples:
        values = list(sample)
        try:
            reference = fold(key, values)
        except Exception as exc:  # sample outside the fn's domain
            failures.append(
                f"fold of {values!r} raised {type(exc).__name__}: {exc}")
            checks += 1
            continue

        for _ in range(rounds):
            permuted = list(values)
            rng.shuffle(permuted)
            checks += 1
            got = fold(key, permuted)
            if not results_equal(got, reference, rtol=rtol, atol=atol):
                failures.append(
                    f"permutation changed the result: fold({values!r}) = "
                    f"{reference!r} but fold({permuted!r}) = {got!r}")
                break

        if not regroup or isinstance(reference, _Pairs):
            continue  # partials are not re-foldable values
        for grouping in _regroupings(values, rng, rounds):
            checks += 1
            try:
                partials = [fold(key, chunk) for chunk in grouping]
                got = fold(key, partials)
            except Exception as exc:
                failures.append(
                    f"regrouped fold over {grouping!r} raised "
                    f"{type(exc).__name__}: {exc}")
                break
            if not results_equal(got, reference, rtol=rtol, atol=atol):
                failures.append(
                    f"regrouping changed the result: fold({values!r}) = "
                    f"{reference!r} but refolding {grouping!r} = {got!r}")
                break

    return ProbeResult(function=name, checks=checks,
                       failures=tuple(failures))


def probe_permutation_invariant(call: "Callable[[list], Any]",
                                items: "Sequence[Any]", *,
                                rounds: int = 8, seed: int = 2010,
                                rtol: float = 1e-9, atol: float = 1e-12,
                                name: str = "call") -> ProbeResult:
    """Check ``call(items)`` is invariant under permutations of ``items``.

    The generic form of :func:`probe_commutative` for functions that
    consume a whole collection at once — e.g. a block spec's
    ``global_combine(state, reports)``, where worker reports arrive in
    scheduler-dependent order.  ``call`` must build any mutable state
    fresh on each invocation.
    """
    rng = random.Random(seed)
    items = list(items)
    reference = call(list(items))
    checks = 0
    failures: "list[str]" = []
    for _ in range(rounds):
        permuted = list(items)
        rng.shuffle(permuted)
        checks += 1
        got = call(permuted)
        if not results_equal(got, reference, rtol=rtol, atol=atol):
            failures.append(
                f"permuting the inputs changed the result: {reference!r} "
                f"vs {got!r}")
            break
    return ProbeResult(function=name, checks=checks,
                       failures=tuple(failures))
