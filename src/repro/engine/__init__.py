"""A complete MapReduce runtime (the Hadoop substitute).

Jobs are user ``map``/``reduce``/``combine`` functions over key-value
records; the runtime executes map tasks (one per input split), a
grouping/sorting shuffle, and reduce tasks, with Hadoop-style counters,
hash partitioning, retry-on-failure via deterministic replay, and three
interchangeable executors (serial / threads / processes).  Attaching a
:class:`~repro.cluster.SimCluster` makes every job charge the cost model
for startup, phase makespans, shuffle bytes, barrier, and the DFS round
trip — producing the simulated-time axis of the paper's figures.
"""

from repro.engine.columnar import (
    ColumnarBlock,
    ColumnarGroups,
    ColumnarReduce,
    StringDictionary,
    group_columnar,
    hash_buckets,
    route_columnar,
    route_combine_columnar,
)
from repro.engine.shm import (
    SegmentRegistry,
    ShmBlockRef,
    ShmGroupsRef,
    ShmPickleRef,
)
from repro.engine.counters import Counters
from repro.engine.faults import (
    FaultPlan,
    NodeDeath,
    NodeFaultPlan,
    SimulatedTaskFailure,
    StragglerPlan,
)
from repro.engine.job import Job, JobConf
from repro.engine.partitioner import HashPartitioner, RangePartitioner, stable_hash
from repro.engine.runtime import JobFailedError, JobResult, MapReduceRuntime
from repro.engine.shuffle import ColumnarRun, ShuffleBuffer, shuffle, shuffle_bytes
from repro.engine.task import TaskContext, TaskResult, run_map_task, run_reduce_task

__all__ = [
    "ColumnarBlock",
    "ColumnarGroups",
    "ColumnarReduce",
    "StringDictionary",
    "group_columnar",
    "hash_buckets",
    "route_columnar",
    "route_combine_columnar",
    "SegmentRegistry",
    "ShmBlockRef",
    "ShmGroupsRef",
    "ShmPickleRef",
    "Job",
    "JobConf",
    "JobResult",
    "JobFailedError",
    "MapReduceRuntime",
    "Counters",
    "FaultPlan",
    "NodeDeath",
    "NodeFaultPlan",
    "SimulatedTaskFailure",
    "StragglerPlan",
    "HashPartitioner",
    "RangePartitioner",
    "stable_hash",
    "ColumnarRun",
    "ShuffleBuffer",
    "shuffle",
    "shuffle_bytes",
    "TaskContext",
    "TaskResult",
    "run_map_task",
    "run_reduce_task",
]
