"""E8 — replication strategies (§4): OptorSim's pull optimizers on Zipf
access under storage pressure, and ChicagoSim's "'push' model in which,
when a site contains a popular data file, it will replicate it to remote
sites"."""

import functools

import pytest

from repro.campaign import run_scenario
from repro.simulators.optorsim import OPTIMIZERS

N_JOBS = 90


@functools.cache
def optor(optimizer, pattern="zipf"):
    return run_scenario("optorsim", {"optimizer": optimizer,
                                     "pattern": pattern}, 11)[0]


@functools.cache
def chicago(job_policy, data_policy):
    return run_scenario("chicagosim", {"job_policy": job_policy,
                                       "data_policy": data_policy}, 31)[0]


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
def test_every_pull_optimizer_completes(optimizer):
    assert optor(optimizer)["completed"] == N_JOBS


@pytest.mark.parametrize("data_policy", ["none", "push"])
def test_push_model_completes(data_policy):
    assert chicago("random", data_policy)["completed"] == N_JOBS


@pytest.mark.parametrize("optimizer", ["lru", "lfu", "economic"])
def test_any_replication_beats_none(optimizer):
    assert optor(optimizer)["mean_job_time"] < optor("none")["mean_job_time"]
    assert optor(optimizer)["remote_fraction"] \
        < optor("none")["remote_fraction"]


def test_economic_veto_evicts_no_more_than_lru():
    assert optor("economic")["replicas_evicted"] \
        <= optor("lru")["replicas_evicted"]


def test_sequential_access_is_lru_friendliest():
    assert optor("lru", "sequential")["remote_fraction"] \
        <= optor("lru", "random")["remote_fraction"]


def test_push_and_data_aware_placement_cut_remote_reads():
    # push never increases remote reads for data-blind random placement...
    assert chicago("random", "push")["remote_fraction"] \
        <= chicago("random", "none")["remote_fraction"] + 1e-9
    # ...and data-aware placement is the stronger lever
    assert chicago("data-present", "none")["remote_fraction"] \
        < chicago("random", "none")["remote_fraction"]
