"""Property tests for the bounded FIFO job queue.

The queue's contract (see ``repro.service.queue``) has three invariants
worth pinning with generated inputs rather than examples:

* strict FIFO: jobs pop in admission order;
* conservation — every accepted job is popped exactly once, across any
  interleaving of submits, pops, close/reopen cycles;
* backpressure shed count is monotone non-decreasing in offered load at
  a fixed depth (more offered sessions can never mean fewer sheds).
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import BackpressureShed, JobQueue, QueueClosed


def _drain_all(queue):
    out = []
    while True:
        job = queue.get(timeout=0)
        if job is None:
            return out
        out.append(job)


@given(n_jobs=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_pops_in_admission_order(n_jobs):
    queue = JobQueue(max_depth=64)
    accepted = [queue.submit(("job", i)).job_id for i in range(n_jobs)]
    popped = _drain_all(queue)
    assert [job.job_id for job in popped] == accepted
    assert [job.payload[1] for job in popped] == list(range(n_jobs))


@given(
    ops=st.lists(
        st.sampled_from(("submit", "pop", "close", "reopen")), max_size=60
    )
)
@settings(max_examples=60, deadline=None)
def test_no_job_lost_or_duplicated_across_close_reopen(ops):
    queue = JobQueue(max_depth=8)
    accepted, popped = [], []
    serial = 0
    for op in ops:
        if op == "submit":
            serial += 1
            try:
                job = queue.submit(("payload", serial))
            except (BackpressureShed, QueueClosed):
                continue
            accepted.append(job.job_id)
        elif op == "pop":
            job = queue.get(timeout=0)
            if job is not None:
                popped.append(job.job_id)
        elif op == "close":
            queue.close()
        else:
            queue.reopen()
    popped += [job.job_id for job in _drain_all(queue)]
    # Exactly once: every accepted job appears exactly once among pops.
    assert sorted(popped) == sorted(accepted)
    assert len(set(popped)) == len(popped)
    counters = queue.counters()
    assert counters["submitted"] == len(accepted)
    assert counters["popped"] == len(popped)
    assert counters["depth"] == 0


@given(
    loads=st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=8)
)
@settings(max_examples=40, deadline=None)
def test_shed_count_monotone_in_offered_load(loads):
    """At fixed depth and no consumption, shed is monotone in offered load."""
    depth = 5
    sheds = []
    for offered in sorted(loads):
        queue = JobQueue(max_depth=depth)
        for i in range(offered):
            try:
                queue.submit(("burst", i))
            except BackpressureShed:
                pass
        assert queue.counters()["shed"] == max(0, offered - depth)
        sheds.append(queue.counters()["shed"])
    assert sheds == sorted(sheds)


def test_depth_one_queue_sheds_second_submission():
    queue = JobQueue(max_depth=1)
    queue.submit("first")
    with pytest.raises(BackpressureShed):
        queue.submit("second")
    assert queue.counters() == {
        "depth": 1,
        "max_depth": 1,
        "submitted": 1,
        "shed": 1,
        "rejected_closed": 0,
        "popped": 0,
    }


def test_closed_queue_rejects_but_still_pops():
    queue = JobQueue(max_depth=4)
    job = queue.submit("kept")
    queue.close()
    with pytest.raises(QueueClosed):
        queue.submit("late")
    assert queue.counters()["rejected_closed"] == 1
    # Drain mode: the accepted job is still handed out.
    assert queue.get(timeout=0).job_id == job.job_id
    queue.reopen()
    queue.submit("after-reopen")
    assert queue.counters()["submitted"] == 2


def test_invalid_depth_rejected():
    with pytest.raises(ValueError, match="max_depth"):
        JobQueue(max_depth=0)
    with pytest.raises(ValueError, match="^max_depth must be a whole number"):
        JobQueue(max_depth=3.7)


def test_wake_all_releases_blocked_get():
    queue = JobQueue(max_depth=4)
    results = []

    def blocked_get():
        results.append(queue.get(timeout=5.0))

    thread = threading.Thread(target=blocked_get)
    thread.start()
    # Wake the waiter without giving it a job: get returns None promptly.
    import time

    time.sleep(0.05)
    queue.wake_all()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert results == [None]


def test_concurrent_submitters_and_consumers_conserve_jobs():
    """Hammer the queue from both sides; nothing lost, nothing doubled."""
    queue = JobQueue(max_depth=16)
    n_producers, per_producer = 4, 50
    popped, lock = [], threading.Lock()
    done = threading.Event()

    def produce(worker):
        for i in range(per_producer):
            while True:
                try:
                    queue.submit((worker, i))
                    break
                except BackpressureShed:
                    continue

    def consume():
        while not (done.is_set() and queue.depth == 0):
            job = queue.get(timeout=0.01)
            if job is not None:
                with lock:
                    popped.append(job.job_id)

    consumers = [threading.Thread(target=consume) for _ in range(3)]
    producers = [
        threading.Thread(target=produce, args=(w,)) for w in range(n_producers)
    ]
    for t in consumers + producers:
        t.start()
    for t in producers:
        t.join()
    done.set()
    for t in consumers:
        t.join()
    assert len(popped) == n_producers * per_producer
    assert len(set(popped)) == len(popped)
    counters = queue.counters()
    assert counters["popped"] == counters["submitted"]
