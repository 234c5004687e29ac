"""Batched-vs-reference identity on the committed archive-shaped corpus.

The engine-identity property suite draws small synthetic traces; this
replays every queue of ``tests/golden/corpus-site.swf.gz`` (3 009 rows:
diurnal bursts, AR(1) log-waits and the ETL's dropped anomalies) with the
9-method headline bank through both engines, so the prefix-kernel driver
meets archive-shaped miss runs and change points too.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.etl import ingest
from repro.simulator.replay import ReplayConfig, replay
from repro.verify.conformance import make_bank
from repro.verify.golden import golden_dir

#: Weibull's streamed fit is path-dependent (see the engine-identity suite):
#: its ratios agree within this band and its hit count is not compared.
_WEIBULL_RTOL = 1e-2

#: The bank's trimming methods the batched engine serves by prefix kernel.
_TRIMMING = ("bmbp", "logn-trim", "mean-wait", "point-quantile")


def test_corpus_fixture_queues_replay_identically(tmp_path):
    store, stats = ingest(
        golden_dir() / "corpus-site.swf.gz", tmp_path / "site",
        site="identity", force=True,
    )
    assert stats.read == 3009
    view = store.view()
    queues = view.queues()
    assert len(queues) > 1
    fires = {name: 0 for name in _TRIMMING}
    for queue in queues:
        qview = view.by_queue(queue)
        batched = replay(qview, make_bank(), ReplayConfig(), engine="batched")
        reference = replay(qview, make_bank(), ReplayConfig(), engine="reference")
        assert set(batched) == set(reference)
        for name in sorted(reference):
            a, b = batched[name], reference[name]
            where = f"{queue}/{name}"
            assert a.change_points == b.change_points, where
            assert a.miss_threshold == b.miss_threshold, where
            assert a.n_evaluated == b.n_evaluated, where
            assert a.n_skipped == b.n_skipped, where
            if name != "weibull":
                assert a.n_correct == b.n_correct, where
            ra, rb = np.asarray(a.ratios), np.asarray(b.ratios)
            finite = np.isfinite(rb)
            assert np.array_equal(np.isfinite(ra), finite), where
            rtol = _WEIBULL_RTOL if name == "weibull" else 1e-9
            np.testing.assert_allclose(ra[finite], rb[finite], rtol=rtol,
                                       err_msg=where)
            if name in fires:
                fires[name] += b.change_points
    # The kernel driver's fire path ran for every trimming method it serves.
    assert all(fires.values()), fires
