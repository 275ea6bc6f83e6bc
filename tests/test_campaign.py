"""Tests for the campaign subsystem: fingerprints, cache, resume,
parallel-equals-serial determinism."""

import json
import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    Job,
    ResultCache,
    run_campaign,
)
from repro.cli import main
from repro.config import JETSON_ORIN_MINI, RTX_3070_MINI
from repro.core import COMPUTE_STREAM, GRAPHICS_STREAM
from repro.isa import save_traces


def nano_job(policy="mps", **kw):
    kw.setdefault("scene", "SPL")
    kw.setdefault("compute", "VIO")
    kw.setdefault("res", "nano")
    kw.setdefault("config", "JetsonOrin-mini")
    return Job(policy=policy, **kw)


SWEEP_POLICIES = ("mps", "mig", "fg-even", "tap")


def sweep_jobs():
    """The canonical 4-job policy sweep used across these tests."""
    return [nano_job(policy) for policy in SWEEP_POLICIES]


class TestJobFingerprint:
    def test_stable_across_instances(self):
        assert nano_job().fingerprint() == nano_job().fingerprint()

    def test_sensitive_to_spec(self):
        base = nano_job().fingerprint()
        assert nano_job("fg-even").fingerprint() != base
        assert nano_job(scene="PT").fingerprint() != base
        assert nano_job(res="2k").fingerprint() != base
        assert nano_job(config="RTX3070-mini").fingerprint() != base
        assert nano_job(params={"rep": 2}).fingerprint() != base

    def test_label_is_not_identity(self):
        assert nano_job(label="a").fingerprint() == \
            nano_job(label="b").fingerprint()

    def test_preset_name_and_config_object_agree(self):
        assert nano_job(config="JetsonOrin-mini").fingerprint() == \
            nano_job(config=JETSON_ORIN_MINI).fingerprint()

    def test_params_order_insensitive(self):
        a = nano_job(params={"a": 1, "b": 2})
        b = nano_job(params={"b": 2, "a": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_trace_file_keys_by_content(self, tmp_path):
        from repro.compute import build_vio_kernels
        kernels = build_vio_kernels()
        p1, p2 = str(tmp_path / "a.gz"), str(tmp_path / "b.gz")
        save_traces(p1, kernels, metadata={"workload": "VIO"})
        save_traces(p2, kernels, metadata={"workload": "VIO"})
        assert Job(compute_trace=p1).fingerprint() == \
            Job(compute_trace=p2).fingerprint()

    def test_to_from_dict_preserves_identity(self):
        job = nano_job("tap", params={"x": 1}, config=RTX_3070_MINI)
        restored = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert restored.fingerprint() == job.fingerprint()
        assert restored.display_label == job.display_label

    def test_legacy_execution_keys_are_ignored(self):
        """Job files written by older builds carry "execution"/"workers";
        they load, drop out of the round trip, and leave the fingerprint
        (so cached results) unchanged."""
        job = nano_job("tap")
        legacy = dict(job.to_dict(), workers=4,
                      execution={"engine": "process", "workers": 2})
        loaded = Job.from_dict(json.loads(json.dumps(legacy)))
        assert loaded.fingerprint() == job.fingerprint()
        assert loaded.to_dict() == job.to_dict()
        assert "execution" not in loaded.to_dict()
        with pytest.raises(ValueError, match="unknown job fields"):
            Job.from_dict(dict(job.to_dict(), engine="process"))

    def test_rejects_empty_and_conflicting_specs(self):
        with pytest.raises(ValueError):
            Job()
        with pytest.raises(ValueError):
            Job(scene="SPL", graphics_trace="x.gz")
        with pytest.raises(ValueError):
            Job(compute="VIO", compute_trace="x.gz")


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("0" * 64) is None
        assert "0" * 64 not in cache

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.path_for("ab" * 32)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as f:
            f.write("{ not json")
        assert cache.get("ab" * 32) is None


class TestCampaignRunner:
    def test_miss_then_hit(self, tmp_path):
        jobs = [nano_job()]
        cold = run_campaign(jobs, cache_dir=str(tmp_path))
        assert (cold.executed, cold.cached) == (1, 0)
        warm = run_campaign(jobs, cache_dir=str(tmp_path))
        assert (warm.executed, warm.cached) == (0, 1)
        assert warm.results[0].status == "cached"
        assert warm.results[0].stats == cold.results[0].stats

    def test_resume_after_partial_run(self, tmp_path):
        jobs = sweep_jobs()
        first = run_campaign(jobs[:2], cache_dir=str(tmp_path))
        assert first.executed == 2
        resumed = run_campaign(jobs, cache_dir=str(tmp_path))
        assert (resumed.executed, resumed.cached) == (2, 2)
        assert [r.status for r in resumed.results] == \
            ["cached", "cached", "ok", "ok"]

    def test_resume_after_partial_failure(self, tmp_path):
        bad = Job(scene="SPL", compute="NOPE", res="nano")
        broken = [nano_job("mps"), bad, nano_job("fg-even")]
        first = run_campaign(broken, cache_dir=str(tmp_path))
        assert not first.ok
        assert (first.executed, first.failed) == (2, 1)
        assert first.results[1].status == "failed"
        assert "NOPE" in first.results[1].error
        assert first.results[1].attempts == 2  # retried once before failing
        # Fix the broken job and resubmit: only it simulates.
        fixed = [nano_job("mps"), nano_job("mig"), nano_job("fg-even")]
        second = run_campaign(fixed, cache_dir=str(tmp_path))
        assert second.ok
        assert (second.executed, second.cached) == (1, 2)

    def test_parallel_equals_serial(self, tmp_path):
        jobs = sweep_jobs()
        serial = run_campaign(jobs, workers=1)
        parallel = run_campaign(jobs, workers=2)
        assert [r.label for r in parallel.results] == \
            [r.label for r in serial.results]
        for s, p in zip(serial.results, parallel.results):
            assert p.stats == s.stats
            assert p.extras == s.extras

    def test_timeout_then_resume(self, tmp_path):
        jobs = [nano_job()]
        timed_out = run_campaign(jobs, cache_dir=str(tmp_path),
                                 timeout=0.001)
        assert timed_out.results[0].status == "timeout"
        assert not timed_out.ok
        recovered = run_campaign(jobs, cache_dir=str(tmp_path))
        assert recovered.ok and recovered.executed == 1

    def test_duplicate_jobs_simulate_once(self):
        campaign = run_campaign([nano_job(), nano_job()])
        assert campaign.executed == 1
        assert campaign.results[0].stats == campaign.results[1].stats

    def test_policy_extras_captured(self):
        campaign = run_campaign([nano_job("warped-slicer"),
                                 nano_job("tap")])
        slicer, tap = campaign.results
        assert "decisions" in slicer.extras
        assert slicer.extras["samples_taken"] >= 0
        assert "final_ratio" in tap.extras

    def test_manifest_written(self, tmp_path):
        campaign = run_campaign([nano_job()], cache_dir=str(tmp_path))
        assert campaign.manifest_path
        with open(campaign.manifest_path) as f:
            doc = json.load(f)
        assert doc["campaign_id"] == campaign.campaign_id
        statuses = [e["status"] for e in doc["jobs"].values()]
        assert statuses == ["ok"]

    def test_summary_roundtrips_stats(self, tmp_path):
        from repro.timing import GPUStats
        campaign = run_campaign([nano_job()])
        out = str(tmp_path / "summary.json")
        campaign.write_summary(out)
        with open(out) as f:
            doc = json.load(f)
        assert doc["totals"]["jobs"] == 1
        job = doc["jobs"][0]
        stats = GPUStats.from_dict(job["stats"])
        assert stats.cycles == campaign.results[0].total_cycles
        assert stats.stream_cycles(GRAPHICS_STREAM) > 0
        assert stats.stream_cycles(COMPUTE_STREAM) > 0


class TestCampaignCLI:
    def test_cross_product_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        rc = main(["campaign", "--scene", "SPL", "--compute", "VIO",
                   "--policy", "mps", "fg-even", "--res", "nano",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--out", out, "--quiet"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "2 executed" in printed
        with open(out) as f:
            doc = json.load(f)
        assert [j["status"] for j in doc["jobs"]] == ["ok", "ok"]

    def test_spec_file(self, tmp_path, capsys):
        spec = str(tmp_path / "jobs.json")
        with open(spec, "w") as f:
            json.dump({"jobs": [nano_job().to_dict()]}, f)
        assert main(["campaign", "--spec", spec, "--no-cache",
                     "--quiet"]) == 0
        assert "1 executed" in capsys.readouterr().out

    def test_requires_some_workload(self, capsys):
        assert main(["campaign", "--quiet"]) == 2

    def test_figure_accepts_jobs_flag(self, capsys):
        # fig13 at nano-scale still goes through the campaign runner.
        from repro.harness.experiments import run_fig13
        r = run_fig13("SPL", "VIO", res="nano", jobs=1)
        assert r.occupancy or r.samples_taken >= 0


class TestTraceReuse:
    """A campaign traces each workload once per task and simulates every
    policy of the task on the same streams."""

    def test_trace_key_ignores_only_run_knobs(self):
        base = nano_job().trace_key()
        assert nano_job("tap", sample_interval=400,
                        params={"rep": 2}).trace_key() == base
        assert nano_job(scene="PT").trace_key() != base
        assert nano_job(res="2k").trace_key() != base
        assert nano_job(config="RTX3070-mini").trace_key() != base
        assert nano_job(compute="HOLO").trace_key() != base
        assert nano_job(compute_args={"frames": 1}).trace_key() != base

    def test_split_by_key_then_halve_the_largest(self):
        from repro.campaign.runner import split_tasks
        assert split_tasks(["a", "b", "c"], 2) == [[0], [1], [2]]
        assert split_tasks(["a"] * 4, 2) == [[0, 1], [2, 3]]
        assert split_tasks(["a", "b", "a", "b"], 1) == [[0, 2], [1, 3]]
        assert split_tasks([], 4) == []
        for keys in (["a"] * 3, ["a", "a", "b"], ["a", "b", "a", "a", "a"]):
            for workers in (1, 2, 3, 8):
                tasks = split_tasks(keys, workers)
                assert sorted(i for t in tasks for i in t) == \
                    list(range(len(keys)))
                assert len(tasks) >= min(workers, len(keys))
                assert len(tasks) <= len(keys)
                assert all(len({keys[i] for i in t}) == 1 for t in tasks)

    @pytest.fixture(scope="class")
    def cold_runs(self):
        """(job, stats, extras) of a fresh, ungrouped run per policy."""
        from repro.api import WorkloadSpec, simulate
        from repro.campaign.execute import _policy_extras
        from repro.core.platform import POLICY_NAMES
        runs = []
        for policy in POLICY_NAMES:
            job = nano_job(policy)
            cold = simulate(
                config=job.resolved_config(), policy=job.policy,
                workload=WorkloadSpec(scene=job.scene, res=job.res,
                                      compute=job.compute))
            runs.append((job, cold.stats.to_dict(),
                         _policy_extras(cold.policy)))
        return runs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reuse_matches_a_cold_trace(self, cold_runs, workers):
        """Every policy simulated on a shared trace gives the stats and
        extras of its own fresh, ungrouped run."""
        campaign = run_campaign([job for job, _, _ in cold_runs],
                                workers=workers)
        assert campaign.executed == len(cold_runs)
        for (job, stats, extras), result in zip(cold_runs, campaign.results):
            assert result.stats == stats, job.policy
            assert result.extras == extras, job.policy

    def test_serial_campaign_traces_each_pair_once(self, monkeypatch):
        import repro.campaign.execute as execute
        traced = []
        real = execute.collect_streams

        def counting(config, **kw):
            traced.append((kw["scene"], kw["compute"]))
            return real(config, **kw)

        monkeypatch.setattr(execute, "collect_streams", counting)
        # Policy-major submission, so the two trace keys interleave.
        jobs = [nano_job(policy, compute=compute)
                for policy in ("mps", "mig", "tap")
                for compute in ("VIO", "HOLO")]
        campaign = run_campaign(jobs, workers=1)
        assert campaign.ok
        assert traced == [("SPL", "VIO"), ("SPL", "HOLO")]
        assert [r.label for r in campaign.results] == \
            [j.display_label for j in jobs]
        assert [r.fingerprint for r in campaign.results] == \
            [j.fingerprint() for j in jobs]

    def test_trace_failure_fails_the_whole_task(self):
        from repro.campaign.execute import run_jobs_guarded
        jobs = [Job(scene="SPL", compute="NOPE", res="nano", policy=p)
                for p in ("mps", "tap")]
        results = run_jobs_guarded(jobs)
        assert [r.status for r in results] == ["failed", "failed"]
        assert all("NOPE" in r.error for r in results)
        assert [r.fingerprint for r in results] == \
            [j.fingerprint() for j in jobs]

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="workers must inherit the patched run_job")
    def test_worker_death_fails_only_its_task(self, monkeypatch, tmp_path):
        """A worker that dies outright fails the jobs of its own task
        (after a retry); the other task's jobs still come back ok."""
        import repro.campaign.execute as execute
        real = execute.run_job
        healthy = [nano_job(p) for p in ("mps", "tap")]
        doomed = [nano_job(p, compute="HOLO") for p in ("mps", "tap")]
        cache = ResultCache(str(tmp_path))

        def run_job(job, streams):
            if job.compute == "HOLO":
                # Die only once the parent has cached the other task's
                # results, so they are in before the pool breaks.
                deadline = time.monotonic() + 60
                while not all(j.fingerprint() in cache for j in healthy) \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)
                os._exit(1)
            return real(job, streams)

        monkeypatch.setattr(execute, "run_job", run_job)
        campaign = run_campaign(healthy + doomed, workers=2,
                                cache_dir=str(tmp_path))
        for result in campaign.results[2:]:
            assert result.status == "failed"
            assert "worker process died" in result.error
            assert result.attempts == 2
        monkeypatch.setattr(execute, "run_job", real)
        clean = run_campaign(healthy, workers=1)
        for result, ref in zip(campaign.results[:2], clean.results):
            assert result.status == "ok"
            assert result.stats == ref.stats
