"""The malleable scheduler's water-fill against the loop it replaced.

``_water_fill`` hands spare nodes out through a heap of ``(target, jid)``;
the loop below — kept verbatim from ``MalleableScheduler._fair_targets``
as it stood, jobs reduced to what it read of them — re-sorted the
claimants before every node.  Same ``targets``, entry for entry.
"""

from collections import namedtuple

from hypothesis import given, settings, strategies as st

from repro.scheduler.algorithms import _water_fill

_Job = namedtuple("_Job", "jid")


def _water_fill_by_sorting(claimants, targets, caps, spare):
    # Water-fill: one node at a time to the smallest target below cap;
    # ties broken by jid for determinism.
    growable = [job for job, _, _ in claimants if targets[job.jid] < caps[job.jid]]
    while spare > 0 and growable:
        growable.sort(key=lambda j: (targets[j.jid], j.jid))
        job = growable[0]
        targets[job.jid] += 1
        spare -= 1
        if targets[job.jid] >= caps[job.jid]:
            growable.remove(job)


@st.composite
def _claims(draw):
    jids = draw(st.lists(st.integers(1, 400), max_size=40, unique=True))
    claimants = []
    for jid in jids:
        low = draw(st.integers(1, 64))
        # Rigid claimants sit at their cap from the start; a cap below the
        # minimum cannot come out of a job, but must not grow either.
        cap = draw(st.one_of(st.just(low), st.integers(low, 128), st.integers(1, low)))
        claimants.append((_Job(jid), low, cap))
    return claimants, draw(st.integers(-5, 300))


@given(_claims())
@settings(max_examples=300, deadline=None)
def test_heap_water_fill_matches_the_sorting_loop(claims):
    claimants, spare = claims
    expected = {job.jid: low for job, low, _ in claimants}
    caps = {job.jid: cap for job, _, cap in claimants}
    targets = dict(expected)
    _water_fill_by_sorting(claimants, expected, caps, spare)
    _water_fill(targets, caps, spare)
    assert list(targets.items()) == list(expected.items())


def test_spare_nodes_level_the_smallest_first_and_stop_at_caps():
    targets = {7: 1, 3: 1, 5: 4, 9: 2}
    _water_fill(targets, {7: 2, 3: 8, 5: 4, 9: 3}, 6)
    # 3 and 7 tie at 1 (lowest jid first), 7 caps at 2, 5 never grows.
    assert targets == {7: 2, 3: 5, 5: 4, 9: 3}
