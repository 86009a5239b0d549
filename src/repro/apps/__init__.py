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

Each iterative app has two entry points: the classic immediate runner
(:func:`pagerank`, :func:`sssp`, ...) and a ``*_spec`` factory
(:func:`pagerank_spec`, :func:`sssp_spec`, :func:`kmeans_spec`,
:func:`components_spec`) that produces a submittable
:class:`~repro.core.session.JobSpec` for the multi-job
:class:`~repro.core.session.Session` API — apps describe work, the
session schedules it.
"""

from repro.apps.apsp import LandmarkApspResult, landmark_apsp
from repro.apps.components import (
    ComponentsBlockSpec,
    ComponentsResult,
    components_reference,
    components_spec,
    connected_components,
)
from repro.apps.jacobi import (
    JacobiBlockSpec,
    JacobiResult,
    SparseSystem,
    jacobi_solve,
    make_diagonally_dominant_system,
)
from repro.apps.kmeans import (
    KMeansBlockSpec,
    KMeansResult,
    assign_points,
    kmeans,
    kmeans_reference,
    kmeans_spec,
    sse,
)
from repro.apps.pagerank import (
    PageRankBlockSpec,
    PageRankKVSpec,
    PageRankResult,
    pagerank,
    pagerank_reference,
    pagerank_spec,
)
from repro.apps.sssp import (
    SsspBlockSpec,
    SsspKVSpec,
    SsspResult,
    sssp,
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
    "pagerank",
    "pagerank_reference",
    "PageRankBlockSpec",
    "PageRankKVSpec",
    "PageRankResult",
    "sssp",
    "sssp_reference",
    "SsspBlockSpec",
    "SsspKVSpec",
    "SsspResult",
    "kmeans",
    "kmeans_reference",
    "KMeansBlockSpec",
    "KMeansResult",
    "assign_points",
    "sse",
    "connected_components",
    "components_reference",
    "ComponentsBlockSpec",
    "ComponentsResult",
    "landmark_apsp",
    "LandmarkApspResult",
    "jacobi_solve",
    "JacobiBlockSpec",
    "JacobiResult",
    "SparseSystem",
    "make_diagonally_dominant_system",
    "wordcount",
    "wordcount_job",
    "wordcount_map",
    "wordcount_reduce",
]
