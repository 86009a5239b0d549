"""repro — reproduction of "Asynchronous Algorithms in MapReduce".

Kambatla, Rapolu, Jagannathan, Grama (IEEE CLUSTER 2010): partial
synchronizations and eager scheduling for iterative MapReduce
applications, evaluated on PageRank, Single-Source Shortest Path and
K-Means.

Subpackages
-----------
``repro.core``
    The paper's contribution and the public API.  Lead with the
    **Session API** (``repro.core.session``): a ``Session`` owns one
    shared simulated cluster + persistent runtime, ``session.submit``
    registers iterative jobs (from the apps' ``*_spec`` factories or
    bare backends) and a pluggable scheduler (FIFO / round-robin /
    fair-share, ``repro.core.jobsched``) drives them all to
    convergence with per-job results and contention metrics.
    Underneath: the two-level (local/global) MapReduce API
    (``lmap``/``lreduce``/``gmap``/``greduce``), partial
    synchronization, eager scheduling, K-Means' oscillation-aware
    stopping rule and the round-re-entrant ``IterationLoop``.
``repro.engine``
    A complete MapReduce runtime (jobs, tasks, shuffle, combiners,
    counters, fault tolerance via deterministic replay, serial/thread/
    process executors) — the Hadoop substitute.
``repro.cluster``
    The simulated 8-node EC2 testbed: cost model, slots and list
    scheduling (with per-job slot shares), network/DFS charges,
    execution traces, per-job charge attribution
    (``RoundAccountant``).
``repro.graph``
    CSR digraphs, preferential-attachment generators (Table II),
    multilevel/BFS/hash partitioners (the Metis substitute), power-law
    fitting.
``repro.apps``
    PageRank, SSSP, K-Means (General + Eager), connected components,
    Jacobi, wordcount — each iterative app described once, by a
    ``*_spec`` factory whose :class:`~repro.core.session.JobSpec` runs
    alone (``.run(cluster)``) or in a :class:`~repro.core.Session`.
``repro.data``
    Synthetic census stand-in (the K-Means input).
``repro.bench``
    Sweeps and reports regenerating every table and figure.

Quickstart
----------
>>> from repro.graph import make_paper_graph, multilevel_partition
>>> from repro.apps import pagerank_spec, sssp_spec
>>> from repro.cluster import SimCluster
>>> from repro.core import Session
>>> g = make_paper_graph("A", scale=0.01, seed=0)
>>> part = multilevel_partition(g, 8, seed=0)
>>> with Session(cluster=SimCluster(), policy="fair") as session:
...     eager = session.submit(pagerank_spec(g, part, mode="eager"))
...     general = session.submit(pagerank_spec(g, part, mode="general"))
...     _ = session.run()
>>> eager.result.global_iters < general.result.global_iters
True

One job alone runs the same description:
``pagerank_spec(g, part).run(SimCluster())`` returns its
:class:`~repro.core.loop.IterativeResult`.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
