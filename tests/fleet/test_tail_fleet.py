"""``bmbp tail --fleet DIR``: a log fed through the shard-aware client.

Every submit goes to the shard owning its queue and every start back to
the same shard, so the shards' journals together hold every event of
the log, each shard only its own queues'.
"""

from repro.cli import main
from repro.fleet import FleetClient
from repro.server.client import ForecastClient
from repro.workloads.swf import write_swf
from repro.workloads.trace import Job, Trace

QUEUES = [str(n) for n in range(1, 7)]


def test_tail_fleet_sends_every_event_to_its_shard(fleet, tmp_path, capsys):
    topo = fleet.topology
    assert {topo.owner(queue) for queue in QUEUES} == {0, 1}
    jobs = [
        Job(submit_time=i * 60.0, wait=(i % 5) * 45.0, procs=1 + i % 8,
            queue=QUEUES[i % len(QUEUES)])
        for i in range(90)
    ]
    swf = tmp_path / "log.swf"
    write_swf(Trace(jobs, name="log"), swf,
              queue_numbers={queue: int(queue) for queue in QUEUES})

    assert main(["tail", str(swf), "--fleet", str(topo.fleet_dir),
                 "--progress-every", "0"]) == 0
    assert capsys.readouterr().out.startswith(
        "tailed 90 jobs (180 events, 0 skipped)"
    )

    seqs = {}
    for shard_id, port in fleet.endpoints().items():
        with ForecastClient(topo.host, port) as client:
            seqs[shard_id] = client.healthz()["seq"]
            owned = [q for q in QUEUES if topo.owner(q) == shard_id]
            assert sorted(client.queues()["queues"]) == sorted(owned)
    owned_jobs = {
        shard_id: sum(topo.owner(job.queue) == shard_id for job in jobs)
        for shard_id in seqs
    }
    assert seqs == {shard_id: 2 * n for shard_id, n in owned_jobs.items()}
    with FleetClient(topo) as client:
        assert client.queues()["pending"] == 0
