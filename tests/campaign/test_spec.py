"""Scenario canonicalisation, content keys, and grid expansion."""

import json

import pytest

from repro.campaign import (
    CampaignError,
    ScenarioSpec,
    canonical_json,
    canonicalize,
    derive_seed,
    expand_campaign,
    load_campaign,
    scenario_key,
    scenarios_from_grid,
)

PLATFORM = {
    "nodes": {"count": 8, "flops": 1e12},
    "network": {"topology": "star", "bandwidth": 1e10},
}
WORKLOAD = {"generate": {"num_jobs": 4, "max_request": 4}}


def make_scenario(**overrides):
    kwargs = dict(platform=PLATFORM, workload=WORKLOAD, algorithm="easy", seed=0)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestCanonicalize:
    def test_sorts_keys_and_normalises_numbers(self):
        assert canonical_json({"b": 1, "a": 32.0}) == '{"a":32,"b":1}'

    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": {"p": 2, "q": 3}}
        b = {"y": {"q": 3, "p": 2}, "x": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_tuples_become_lists(self):
        assert canonicalize((1, 2)) == [1, 2]

    def test_rejects_non_json(self):
        with pytest.raises(CampaignError):
            canonicalize({"f": object()})

    def test_rejects_non_finite(self):
        with pytest.raises(CampaignError):
            canonicalize(float("inf"))

    def test_rejects_non_string_keys(self):
        with pytest.raises(CampaignError):
            canonicalize({1: "x"})


class TestScenarioKey:
    def test_key_is_stable(self):
        assert make_scenario().key() == make_scenario().key()

    def test_key_tracks_physics(self):
        base = make_scenario().key()
        assert make_scenario(seed=1).key() != base
        assert make_scenario(algorithm="fcfs").key() != base
        assert (
            make_scenario(workload={"generate": {"num_jobs": 5}}).key() != base
        )
        assert (
            make_scenario(
                platform={**PLATFORM, "nodes": {"count": 16, "flops": 1e12}}
            ).key()
            != base
        )

    def test_key_ignores_labels(self):
        base = make_scenario().key()
        assert make_scenario(name="other", params={"load": 1}).key() == base

    def test_key_tracks_salt(self):
        scenario = make_scenario()
        assert scenario.key(salt="a") != scenario.key(salt="b")

    def test_integral_floats_hash_like_ints(self):
        a = make_scenario(workload={"generate": {"num_jobs": 4.0}})
        b = make_scenario(workload={"generate": {"num_jobs": 4}})
        assert a.key() == b.key()

    def test_scenario_key_function_matches_method(self):
        scenario = make_scenario()
        assert scenario.key() == scenario_key(scenario.canonical())
        assert scenario.key(salt="s") == scenario_key(scenario.canonical(), salt="s")

    def test_golden_content_key(self):
        # Computed at a24cdc2, before the canonical form was memoised: a
        # change here orphans every existing result cache.
        scenario = make_scenario(
            workload={"generate": {"num_jobs": 4, "max_request": 4.0}},
            seed=7,
            sim={"invocation_interval": 30.0},
            params={"load": 0.5},
            name="golden",
        )
        golden = "c4f536943b03f306d9d0780eb353c542cea60dfe7bc62a91996923fdd46c14ed"
        assert scenario.key(salt="golden-salt") == golden
        assert scenario.key(salt="golden-salt") == golden  # from the memo


class TestCanonicalMemo:
    """``ScenarioSpec`` canonicalises once; reassigning a hashed field resets it."""

    def test_canonical_form_is_computed_once(self, monkeypatch):
        import repro.campaign.spec as spec_module

        real = spec_module.canonicalize
        roots = []  # top-level documents handed to (recursive) canonicalize
        depth = [0]

        def counting(value):
            if not depth[0]:
                roots.append(value)
            depth[0] += 1
            try:
                return real(value)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(spec_module, "canonicalize", counting)
        scenario = make_scenario(params={"load": 1})
        scenario.key()
        assert len(roots) == 1 and "platform" in roots[0]
        scenario.key(salt="other")
        scenario.canonical()
        assert len(roots) == 1
        scenario.as_record()
        assert roots[1:] == [{"load": 1}]  # the labels only

    @pytest.mark.parametrize(
        "field, value",
        [
            ("platform", {**PLATFORM, "nodes": {"count": 16, "flops": 1e12}}),
            ("workload", {"generate": {"num_jobs": 5}}),
            ("algorithm", "fcfs"),
            ("seed", 1),
            ("sim", {"invocation_interval": 10}),
        ],
    )
    def test_reassigning_a_hashed_field_changes_the_key(self, field, value):
        scenario = make_scenario()
        before = scenario.key()
        setattr(scenario, field, value)
        assert scenario.key() != before
        assert scenario.key() == make_scenario(**{field: value}).key()
        assert scenario.as_record()[field] == scenario.canonical()[field]

    def test_labels_do_not_touch_the_memo(self):
        scenario = make_scenario()
        before = scenario.key()
        scenario.name = "renamed"
        scenario.params = {"load": 2}
        assert scenario.key() == before
        record = scenario.as_record()
        assert record["name"] == "renamed" and record["params"] == {"load": 2}

    def test_canonical_and_record_are_fresh_top_level_dicts(self):
        scenario = make_scenario()
        scenario.canonical()["seed"] = 99
        scenario.as_record()["algorithm"] = "other"
        assert scenario.canonical()["seed"] == 0
        assert scenario.as_record()["algorithm"] == "easy"
        assert "name" not in scenario.canonical()

    def test_pinning_a_workload_file_after_keying_changes_the_key(self, tmp_path):
        from repro.campaign.spec import _pin_workload_file

        (tmp_path / "wl.json").write_text("{}")
        original = {"file": "wl.json"}
        scenario = make_scenario(workload=original)
        before = scenario.key()
        _pin_workload_file(scenario, tmp_path)
        assert scenario.key() != before
        assert scenario.canonical()["workload"]["sha256"]
        assert original == {"file": "wl.json"}  # the caller's dict is not edited


class TestScenarioSpec:
    def test_needs_workload_source(self):
        with pytest.raises(CampaignError):
            make_scenario(workload={})

    def test_needs_algorithm(self):
        with pytest.raises(CampaignError):
            make_scenario(algorithm="")

    def test_auto_name_includes_params_and_seed(self):
        scenario = make_scenario(params={"load": 0.9}, seed=7)
        assert scenario.name == "easy/load=0.9/seed=7"


class TestEngine:
    """How a run executes is not part of what a scenario is: the one
    engine option is ``Simulation(reference=)``, for tests."""

    def test_unknown_mode_rejected(self):
        # Every mode is: the block itself is an unknown key.
        with pytest.raises(TypeError):
            make_scenario(engine={"array_engine": False})
        with pytest.raises(CampaignError, match=r"^unknown key\(s\) \['engine'\]"):
            expand_campaign(
                {"platform": PLATFORM, "workload": WORKLOAD, "engine": {"compiled": False}}
            )

    def test_unpinned_spec_keeps_its_pre_engine_key(self):
        # ``test_golden_content_key`` pins the bytes; this is why they hold.
        assert "engine" not in make_scenario().canonical()


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(12345, "x") < 2**63


class TestExpandCampaign:
    def base(self, **extra):
        spec = {
            "platform": PLATFORM,
            "workload": WORKLOAD,
            "algorithms": ["easy", "fcfs"],
            "seeds": [0, 1, 2],
        }
        spec.update(extra)
        return spec

    def test_cartesian_product_size(self):
        scenarios = expand_campaign(self.base(grid={"load": [0.5, 0.9]}))
        assert len(scenarios) == 2 * 3 * 2
        assert len({s.name for s in scenarios}) == len(scenarios)

    def test_grid_values_bind_into_expressions(self):
        scenarios = expand_campaign(
            self.base(
                workload={
                    "generate": {
                        "num_jobs": 4,
                        "malleable_fraction": "share",
                        "mean_runtime": "100 * load",
                    }
                },
                grid={"load": [0.5, 1.0], "share": [0.0, 0.25]},
            )
        )
        generate = scenarios[0].workload["generate"]
        assert generate["malleable_fraction"] in (0.0, 0.25)
        assert generate["mean_runtime"] in (50.0, 100, 100.0, 25.0)
        picked = {
            (s.params["load"], s.params["share"], s.workload["generate"]["mean_runtime"])
            for s in scenarios
        }
        for load, share, runtime in picked:
            assert runtime == 100 * load

    def test_non_expression_strings_pass_through(self):
        scenarios = expand_campaign(self.base())
        assert scenarios[0].platform["network"]["topology"] == "star"
        assert scenarios[0].platform["nodes"]["count"] == 8

    def test_num_seeds_derives_deterministic_seeds(self):
        spec = self.base(num_seeds=3)
        del spec["seeds"]
        a = expand_campaign(spec)
        b = expand_campaign(dict(spec))
        assert [s.seed for s in a] == [s.seed for s in b]
        assert len({s.seed for s in a}) == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(CampaignError):
            expand_campaign(self.base(surprise=1))

    def test_empty_axes_rejected(self):
        with pytest.raises(CampaignError):
            expand_campaign(self.base(grid={"load": []}))
        with pytest.raises(CampaignError):
            expand_campaign(self.base(seeds=[]))

    def test_singular_and_plural_conflict(self):
        with pytest.raises(CampaignError):
            expand_campaign(self.base(algorithm="easy"))


class TestLoadCampaign:
    def test_json_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"platform": PLATFORM, "workload": WORKLOAD, "seeds": [0, 1]}
            )
        )
        scenarios = load_campaign(path)
        assert len(scenarios) == 2

    def test_toml_file(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            "\n".join(
                [
                    'algorithms = ["easy", "fcfs"]',
                    "[platform.nodes]",
                    "count = 8",
                    "flops = 1e12",
                    "[platform.network]",
                    'topology = "star"',
                    "bandwidth = 1e10",
                    "[workload.generate]",
                    "num_jobs = 4",
                ]
            )
        )
        scenarios = load_campaign(path)
        assert len(scenarios) == 2
        assert scenarios[0].platform["nodes"]["count"] == 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError):
            load_campaign(tmp_path / "ghost.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(CampaignError):
            load_campaign(path)

    def test_workload_file_content_pins_the_key(self, tmp_path):
        workload = {
            "jobs": [
                {
                    "id": 1,
                    "type": "rigid",
                    "num_nodes": 2,
                    "application": {
                        "phases": [{"tasks": [{"type": "cpu", "flops": 1e9}]}]
                    },
                }
            ]
        }
        wl_path = tmp_path / "wl.json"
        wl_path.write_text(json.dumps(workload))
        campaign = tmp_path / "c.json"
        campaign.write_text(
            json.dumps({"platform": PLATFORM, "workload": {"file": "wl.json"}})
        )
        key_before = load_campaign(campaign)[0].key()
        # Same path, different content -> different content address.
        workload["jobs"][0]["num_nodes"] = 4
        wl_path.write_text(json.dumps(workload))
        key_after = load_campaign(campaign)[0].key()
        assert key_before != key_after


class TestScenariosFromGrid:
    def test_calls_build_per_point_in_order(self):
        seen = []

        def build(load, share):
            seen.append((load, share))
            return make_scenario(params={"load": load, "share": share})

        scenarios = scenarios_from_grid(
            {"load": [1, 2], "share": [3, 4]}, build
        )
        assert seen == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert len(scenarios) == 4

    def test_none_skips_a_point(self):
        scenarios = scenarios_from_grid(
            {"x": [0, 1]}, lambda x: make_scenario(params={"x": x}) if x else None
        )
        assert len(scenarios) == 1
