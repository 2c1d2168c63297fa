"""Workload generators: arrivals, task farms, DAGs, file access, LHC loads.

The *user applications* layer of the taxonomy — everything here produces
plain data (times, jobs, DAGs, file schedules) that the middleware and
simulator models consume, keeping workload definition independent of model
execution (the *input data generator* classification of Section 3).
"""

from .access import (
    ACCESS_PATTERNS,
    gaussian_walk_requests,
    random_requests,
    sequential_requests,
    unitary_walk_requests,
    zipf_requests,
)
from .arrivals import poisson_arrivals
from .dags import layered_dag
from .faultchurn import FaultChurnModel, build_fault_churn
from .flowchurn import FlowChurnModel, build_flow_churn
from .lhc import (
    ATLAS_2005,
    CMS_2005,
    ExperimentSpec,
    production_schedule,
)
from .partitioned import PartitionedRing, build_partitioned_ring
from .taskfarm import task_farm
from .traces import JOB_SUBMIT_KIND, jobs_from_trace, jobs_to_trace

__all__ = [
    "poisson_arrivals",
    "task_farm",
    "PartitionedRing",
    "build_partitioned_ring",
    "FlowChurnModel",
    "build_flow_churn",
    "FaultChurnModel",
    "build_fault_churn",
    "layered_dag",
    "ACCESS_PATTERNS",
    "sequential_requests",
    "random_requests",
    "unitary_walk_requests",
    "gaussian_walk_requests",
    "zipf_requests",
    "ExperimentSpec",
    "CMS_2005",
    "ATLAS_2005",
    "production_schedule",
    "jobs_to_trace",
    "jobs_from_trace",
    "JOB_SUBMIT_KIND",
]
