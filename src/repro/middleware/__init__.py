"""Middleware substrate: jobs, directories, schedulers, brokers, economy,
replication — the policy layer of the taxonomy's four-component stack."""

from .broker import DagRunner, GridRunner, WorkQueueRunner
from .catalog import GridInformationService, ReplicaCatalog
from .economy import EconomyBroker, ResourceOffer
from .jobs import Dag, Job, JobState
from .replication import (
    DataReplicationAgent,
    EconomicReplication,
    LfuReplication,
    LruReplication,
    NoReplication,
    PushReplication,
    ReplicationStrategy,
)
from .scheduling import (
    DataPresentScheduler,
    FastestSiteScheduler,
    HeftScheduler,
    LeastLoadedScheduler,
    LocalScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    PredictiveScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SchedulingContext,
    SufferageScheduler,
    TaskScheduler,
)

__all__ = [
    "Job",
    "JobState",
    "Dag",
    "ReplicaCatalog",
    "GridInformationService",
    "SchedulingContext",
    "TaskScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "FastestSiteScheduler",
    "PredictiveScheduler",
    "DataPresentScheduler",
    "LocalScheduler",
    "MinMinScheduler",
    "MaxMinScheduler",
    "SufferageScheduler",
    "HeftScheduler",
    "GridRunner",
    "WorkQueueRunner",
    "DagRunner",
    "EconomyBroker",
    "ResourceOffer",
    "ReplicationStrategy",
    "NoReplication",
    "LruReplication",
    "LfuReplication",
    "EconomicReplication",
    "PushReplication",
    "DataReplicationAgent",
]
