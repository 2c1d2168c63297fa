"""E8 — replication strategies (§4): OptorSim's pull optimizers on Zipf
access under storage pressure, and ChicagoSim's "'push' model in which,
when a site contains a popular data file, it will replicate it to remote
sites"."""

import functools

import pytest

from repro.core import Simulator
from repro.simulators import ChicagoSimModel, OptorSimModel
from repro.simulators.optorsim import OPTIMIZERS

N_JOBS = 90


@functools.cache
def optor(optimizer, pattern="zipf"):
    model = OptorSimModel(Simulator(seed=11), optimizer=optimizer,
                          access_pattern=pattern, n_sites=5, n_files=30,
                          files_per_job=6, se_capacity=8e9)
    return model.run(n_jobs=N_JOBS, inter_arrival=15.0)


@functools.cache
def chicago(job_policy, data_policy):
    model = ChicagoSimModel(Simulator(seed=31), n_sites=5, n_datasets=20,
                            job_policy=job_policy, data_policy=data_policy,
                            push_threshold=3)
    return model.run(n_jobs=N_JOBS, zipf_s=1.2)


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
def test_every_pull_optimizer_completes(optimizer):
    assert len(optor(optimizer).completed) == N_JOBS


@pytest.mark.parametrize("data_policy", ["none", "push"])
def test_push_model_completes(data_policy):
    assert len(chicago("random", data_policy).completed) == N_JOBS


@pytest.mark.parametrize("optimizer", ["lru", "lfu", "economic"])
def test_any_replication_beats_none(optimizer):
    assert optor(optimizer).mean_job_time < optor("none").mean_job_time
    assert optor(optimizer).remote_fraction() < optor("none").remote_fraction()


def test_economic_veto_evicts_no_more_than_lru():
    assert optor("economic").strategy.replicas_evicted \
        <= optor("lru").strategy.replicas_evicted


def test_sequential_access_is_lru_friendliest():
    assert optor("lru", "sequential").remote_fraction() \
        <= optor("lru", "random").remote_fraction()


def test_push_and_data_aware_placement_cut_remote_reads():
    # push never increases remote reads for data-blind random placement...
    assert chicago("random", "push").remote_fraction() \
        <= chicago("random", "none").remote_fraction() + 1e-9
    # ...and data-aware placement is the stronger lever
    assert chicago("data-present", "none").remote_fraction() \
        < chicago("random", "none").remote_fraction()
