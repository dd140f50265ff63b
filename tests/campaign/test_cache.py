"""Content-addressed result cache: hits, misses, invalidation, shared tree."""

import json
import sys
import threading

from repro.campaign import CampaignRunner, ResultCache, ScenarioSpec, result_fingerprint

PLATFORM = {
    "nodes": {"count": 8, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 1e10},
}


def make_scenario(**overrides):
    kwargs = dict(
        platform=PLATFORM,
        workload={"generate": {"num_jobs": 4, "max_request": 4}},
        algorithm="easy",
        seed=0,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def ok_record(**extra):
    record = {"status": "ok", "result": {"summary": {"makespan": 10.0}}}
    record.update(extra)
    return record


class TestLookupAndStore:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_scenario().key()
        assert cache.lookup(key) is None
        assert cache.misses == 1
        cache.store(key, ok_record())
        assert cache.lookup(key) == ok_record()
        assert cache.hits == 1
        assert key in cache
        assert len(cache) == 1

    def test_spec_change_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(make_scenario().key(), ok_record())
        assert cache.lookup(make_scenario(seed=1).key()) is None
        assert cache.lookup(make_scenario(algorithm="fcfs").key()) is None

    def test_salt_change_is_a_miss(self, tmp_path):
        # A simulator version bump moves every scenario to a new address.
        scenario = make_scenario()
        cache = ResultCache(tmp_path)
        cache.store(scenario.key(salt="v1"), ok_record())
        assert cache.lookup(scenario.key(salt="v2")) is None
        assert cache.lookup(scenario.key(salt="v1")) is not None

    def test_failed_records_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_scenario().key()
        assert cache.store(key, {"status": "failed", "error": "boom"}) is None
        assert key not in cache
        assert cache.lookup(key) is None


class TestRobustness:
    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_scenario().key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"status": "ok", "trunc')
        assert cache.lookup(key) is None
        assert not path.exists()

    def test_non_ok_entry_on_disk_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_scenario().key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"status": "failed"}))
        assert cache.lookup(key) is None

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(make_scenario().key(), ok_record())
        leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_four_threads_storing_one_key_tear_nothing(self, tmp_path):
        # The embedding-application case: several threads of one process
        # finish the same scenario.  A temp name shared by the process let
        # one thread rename (or truncate) another's half-written file.
        cache = ResultCache(tmp_path)
        key = make_scenario().key()
        record = ok_record(padding="x" * 4096)
        errors = []

        def hammer():
            try:
                for _ in range(300):
                    cache.store(key, record)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")] == []
        assert cache.lookup(key) == record

    def test_clear_drops_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(make_scenario().key(), ok_record())
        cache.store(make_scenario(seed=1).key(), ok_record())
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_empty_cache_has_len_zero(self, tmp_path):
        assert len(ResultCache(tmp_path / "never-created")) == 0


class TestDefaultLocation:
    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        from repro.campaign.cache import CACHE_DIR_ENV, default_cache_dir

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ResultCache().root == tmp_path / "custom"

    def test_fan_out_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = make_scenario().key()
        assert cache.path_for(key) == tmp_path / key[:2] / f"{key}.json"


KEY = "ab" + "0" * 62


class TestSharedRoot:
    """``shared_root=``: a second tree the same keys resolve in."""

    def test_local_only_is_a_plain_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "local")
        assert cache.shared is None
        cache.store(KEY, ok_record())
        assert cache.lookup(KEY) == ok_record()
        assert cache.shared_hits == 0

    def test_write_through_lands_in_both_trees(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_root=tmp_path / "shared")
        cache.store(KEY, ok_record())
        assert ResultCache(tmp_path / "local").lookup(KEY) == ok_record()
        assert ResultCache(tmp_path / "shared").lookup(KEY) == ok_record()

    def test_read_through_with_copy_back(self, tmp_path):
        # Another host populated the shared tree; this host's local tree
        # is empty.
        ResultCache(tmp_path / "shared").store(KEY, ok_record())
        cache = ResultCache(tmp_path / "local", shared_root=tmp_path / "shared")
        assert cache.lookup(KEY) == ok_record()
        # hits / misses count the local tree; the shared tree's answer is
        # counted apart.
        assert (cache.hits, cache.misses, cache.shared_hits) == (0, 1, 1)
        # Copy-back: the next lookup is answered locally.
        assert ResultCache(tmp_path / "local").lookup(KEY) == ok_record()
        assert cache.lookup(KEY) == ok_record()
        assert (cache.hits, cache.misses, cache.shared_hits) == (1, 1, 1)

    def test_miss_everywhere_is_none(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_root=tmp_path / "shared")
        assert cache.lookup(KEY) is None
        assert (cache.hits, cache.misses, cache.shared_hits) == (0, 1, 0)

    def test_failed_records_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path / "local", shared_root=tmp_path / "shared")
        cache.store(KEY, {"status": "failed", "error": "boom"})
        assert cache.lookup(KEY) is None
        assert ResultCache(tmp_path / "shared").lookup(KEY) is None

    def test_two_hosts_share_results_through_the_store(self, tmp_path):
        """Distinct local caches, one shared tree: compute once, reuse."""
        scenarios = [make_scenario(seed=seed) for seed in (3, 4)]
        host_a = ResultCache(tmp_path / "a", shared_root=tmp_path / "shared")
        first = CampaignRunner(scenarios, workers=1, cache=host_a).run()
        assert first.executed == 2

        host_b = ResultCache(tmp_path / "b", shared_root=tmp_path / "shared")
        second = CampaignRunner(scenarios, workers=1, cache=host_b).run()
        assert second.executed == 0
        assert second.cache_hits == 2
        assert host_b.shared_hits == 2
        assert [result_fingerprint(r) for r in second.records] == [
            result_fingerprint(r) for r in first.records
        ]

    def test_cached_records_are_byte_identical(self, tmp_path):
        scenario = make_scenario()
        cache = ResultCache(tmp_path / "local", shared_root=tmp_path / "shared")
        fresh = CampaignRunner([scenario], workers=1, cache=cache).run()
        cached = CampaignRunner([scenario], workers=1, cache=cache).run()
        assert cached.records[0]["cached"] is True
        assert result_fingerprint(cached.records[0]) == result_fingerprint(
            fresh.records[0]
        )
        # The stored payload is canonical JSON on disk in both trees.
        local_path = cache.path_for(fresh.records[0]["key"])
        shared_path = cache.shared.path_for(fresh.records[0]["key"])
        assert json.loads(local_path.read_text()) == json.loads(
            shared_path.read_text()
        )
