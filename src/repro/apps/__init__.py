"""Applications: the paper's three benchmarks plus extensions.

* :mod:`~repro.apps.pagerank` — PageRank (§V-B), General + Eager.
* :mod:`~repro.apps.sssp` — Single-Source Shortest Path (§V-C).
* :mod:`~repro.apps.kmeans` — K-Means clustering (§V-D) with the
  Yom-Tov & Slonim repartitioning and oscillation detection.
* :mod:`~repro.apps.components` — connected components (§V-E / §VI
  "broader applicability").
* :mod:`~repro.apps.jacobi` — asynchronous Jacobi linear solver (§VI:
  "asynchronous mat-vecs form the core of iterative linear system
  solvers").
* :mod:`~repro.apps.apsp` — landmark all-pairs shortest paths (§V-C:
  "All-Pairs Shortest Path has a related structure").
* :mod:`~repro.apps.wordcount` — engine sanity application.

Each iterative app is described once, by its ``*_spec`` factory
(:func:`pagerank_spec`, :func:`sssp_spec`, :func:`kmeans_spec`,
:func:`components_spec`, :func:`jacobi_spec`): a
:class:`~repro.core.session.JobSpec` that runs alone with
``.run(cluster)`` or together with other jobs in a
:class:`~repro.core.session.Session` — apps describe work, the
framework runs it.  The result is the loop's
:class:`~repro.core.loop.IterativeResult`; its ``state`` is the ranks,
distances, centroids, labels or solution.
"""

from repro.apps.apsp import LandmarkApspResult, landmark_apsp
from repro.apps.components import (
    ComponentsBlockSpec,
    components_reference,
    components_spec,
)
from repro.apps.jacobi import (
    JacobiBlockSpec,
    SparseSystem,
    jacobi_spec,
    make_diagonally_dominant_system,
)
from repro.apps.kmeans import (
    KMeansBlockSpec,
    assign_points,
    kmeans_reference,
    kmeans_spec,
    sse,
)
from repro.apps.pagerank import (
    PageRankBlockSpec,
    PageRankKVSpec,
    pagerank_reference,
    pagerank_spec,
)
from repro.apps.sssp import (
    SsspBlockSpec,
    SsspKVSpec,
    sssp_reference,
    sssp_spec,
)
from repro.apps.wordcount import (
    wordcount,
    wordcount_job,
    wordcount_map,
    wordcount_reduce,
)

__all__ = [
    "pagerank_spec",
    "sssp_spec",
    "kmeans_spec",
    "components_spec",
    "jacobi_spec",
    "pagerank_reference",
    "PageRankBlockSpec",
    "PageRankKVSpec",
    "sssp_reference",
    "SsspBlockSpec",
    "SsspKVSpec",
    "kmeans_reference",
    "KMeansBlockSpec",
    "assign_points",
    "sse",
    "components_reference",
    "ComponentsBlockSpec",
    "landmark_apsp",
    "LandmarkApspResult",
    "JacobiBlockSpec",
    "SparseSystem",
    "make_diagonally_dominant_system",
    "wordcount",
    "wordcount_job",
    "wordcount_map",
    "wordcount_reduce",
]
