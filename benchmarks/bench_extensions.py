"""Benchmarks for the beyond-the-paper extensions.

* single-user kNN (``similar_users``) vs. the exhaustive scan — the
  filter-and-refine machinery applied to a single probe;
* incremental STPSJoin maintenance — insert throughput of the streaming
  engine vs. rerunning S-PPJ-F from scratch after every insertion;
* process-parallel S-PPJ-B (``workers=N``) vs. the one-worker run;
* the temporal join overhead relative to the plain join.
"""

import multiprocessing

import pytest

from repro import STPSJoinQuery, stps_join
from repro.core.incremental import IncrementalSTPSJoin
from repro.core.knn import naive_similar_users, similar_users
from repro.core.temporal import TemporalDataset, TemporalQuery, temporal_stps_join

from _common import BENCH_USERS, dataset_for, thresholds_for

fork_available = "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.parametrize("engine", ("similar-users", "naive-scan"))
def test_knn_probe(run_once, engine):
    dataset = dataset_for("flickr", BENCH_USERS)
    eps_loc, eps_doc, _ = thresholds_for("flickr")
    # A mid-sized user makes a representative probe.
    probe = sorted(dataset.users, key=lambda u: len(dataset.user_objects(u)))[
        len(dataset.users) // 2
    ]
    fn = similar_users if engine == "similar-users" else naive_similar_users
    result = run_once(fn, dataset, probe, eps_loc, eps_doc, 10)
    assert isinstance(result, list)


def test_knn_agrees_with_oracle():
    dataset = dataset_for("flickr", 60)
    eps_loc, eps_doc, _ = thresholds_for("flickr")
    probe = dataset.users[0]
    fast = sorted(round(s, 12) for _, s in similar_users(dataset, probe, eps_loc, eps_doc, 5))
    slow = sorted(round(s, 12) for _, s in naive_similar_users(dataset, probe, eps_loc, eps_doc, 5))
    assert fast == slow


@pytest.mark.parametrize("mode", ("incremental", "batch-rerun"))
def test_streaming_maintenance(run_once, mode):
    dataset = dataset_for("twitter", 40)
    eps_loc, eps_doc, eps_user = thresholds_for("twitter")
    query = STPSJoinQuery(eps_loc, eps_doc, eps_user)
    stream = [
        (o.user, o.x, o.y, dataset.vocab.decode(o.doc)) for o in dataset.objects
    ][:400]

    if mode == "incremental":
        def run():
            engine = IncrementalSTPSJoin(dataset.bounds, query)
            for record in stream:
                engine.add_object(*record)
            return engine.results()
    else:
        from repro import STDataset

        def run():
            # Re-run the batch join after every 40 inserts (a generous
            # comparison point — per-insert reruns would be 40x slower).
            out = None
            for upto in range(40, len(stream) + 1, 40):
                ds = STDataset.from_records(stream[:upto])
                out = stps_join(ds, eps_loc, eps_doc, eps_user)
            return out

    result = run_once(run)
    assert result is not None


@pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_parallel_sppj_b(run_once, workers):
    dataset = dataset_for("twitter", BENCH_USERS)
    eps = thresholds_for("twitter")
    # workers=1 runs inline on the sequential backend, no pool.
    result = run_once(
        stps_join, dataset, *eps, algorithm="s-ppj-b",
        workers=workers if workers > 1 else None,
    )
    assert isinstance(result, list)


@pytest.mark.parametrize("eps_time", (0.1, 1.0))
def test_temporal_join(run_once, eps_time):
    dataset = dataset_for("twitter", BENCH_USERS)
    eps_loc, eps_doc, eps_user = thresholds_for("twitter")
    # Synthetic timestamps: one per object, spread over a unit interval.
    times = [(o.oid % 997) / 997.0 for o in dataset.objects]
    tds = TemporalDataset(dataset, times)
    query = TemporalQuery(eps_loc, eps_doc, eps_time, eps_user)
    result = run_once(temporal_stps_join, tds, query)
    assert isinstance(result, list)
