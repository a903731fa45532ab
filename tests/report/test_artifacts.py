"""Shared artifact loading: policies, resolution, merging."""

import json

import pytest

from repro.errors import ArtifactError, ConfigurationError
from repro.report import (
    load_fault_plan,
    load_journeys,
    load_report,
    read_artifact,
    resolve_artifact,
)
from repro.report.artifacts import first_meta, records_of_kind


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestReadArtifact:
    def test_reads_records_in_order(self, tmp_path):
        path = write_lines(tmp_path / "a.jsonl", [
            json.dumps({"kind": "meta", "n": 1}),
            json.dumps({"kind": "journey", "n": 2}),
        ])
        records, skipped = read_artifact(path)
        assert [r["n"] for r in records] == [1, 2]
        assert skipped == []

    def test_blank_lines_tolerated(self, tmp_path):
        path = write_lines(tmp_path / "a.jsonl", [
            json.dumps({"n": 1}), "", "  ", json.dumps({"n": 2}),
        ])
        records, skipped = read_artifact(path)
        assert len(records) == 2 and skipped == []

    def test_strict_names_file_and_line(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", [
            json.dumps({"n": 1}), "{not json", json.dumps({"n": 3}),
        ])
        with pytest.raises(ArtifactError) as err:
            read_artifact(path)
        assert "bad.jsonl:2" in str(err.value)

    def test_lenient_counts_skips(self, tmp_path):
        path = write_lines(tmp_path / "bad.jsonl", [
            json.dumps({"n": 1}), "{not json", '"a bare string"',
            json.dumps({"n": 4}),
        ])
        records, skipped = read_artifact(path, malformed="skip")
        assert [r["n"] for r in records] == [1, 4]
        assert skipped == [2, 3]

    def test_non_object_is_malformed(self, tmp_path):
        path = write_lines(tmp_path / "a.jsonl", ["[1, 2, 3]"])
        with pytest.raises(ArtifactError):
            read_artifact(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_artifact(tmp_path / "nope.jsonl")

    def test_missing_ok_reads_empty(self, tmp_path):
        assert read_artifact(tmp_path / "nope.jsonl", missing_ok=True) == ([], [])

    def test_lenient_skips_a_torn_final_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps({"n": 1}) + "\n" + '{"n": 2, "sta', encoding="utf-8")
        records, skipped = read_artifact(path, malformed="skip")
        assert records == [{"n": 1}] and skipped == [2]

    def test_one_reader_for_every_layer(self):
        from repro import telemetry
        from repro.report import artifacts

        assert artifacts.read_artifact is telemetry.read_artifact

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            read_artifact(tmp_path / "x.jsonl", malformed="ignore")


class TestResolveArtifact:
    def test_file_passes_through(self, tmp_path):
        path = write_lines(tmp_path / "a.jsonl", ["{}"])
        assert resolve_artifact(path) == path

    def test_directory_resolves_default_name(self, tmp_path):
        inner = write_lines(tmp_path / "attribution.jsonl", ["{}"])
        assert resolve_artifact(tmp_path) == inner

    def test_directory_without_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            resolve_artifact(tmp_path)


class TestLoadJourneys:
    def journey(self, jid, scenario="s"):
        return {
            "kind": "journey", "jid": jid, "op": "read", "addr": 0,
            "channel": 0, "scenario": scenario, "start_ps": 0,
            "end_ps": 100, "stages": [],
        }

    def test_single_source_returns_journeys(self, tmp_path):
        path = write_lines(tmp_path / "a.jsonl", [
            json.dumps({"kind": "meta"}),
            json.dumps(self.journey(1)),
        ])
        journeys, warnings = load_journeys([path])
        assert len(journeys) == 1 and warnings == []

    def test_merge_is_argument_order_independent(self, tmp_path):
        a = write_lines(tmp_path / "a.jsonl", [json.dumps(self.journey(1))])
        b = write_lines(tmp_path / "b.jsonl", [json.dumps(self.journey(2))])
        ab, _ = load_journeys([a, b])
        ba, _ = load_journeys([b, a])
        assert ab == ba
        assert all(j["source"] for j in ab)

    def test_lenient_surfaces_warning(self, tmp_path):
        path = write_lines(tmp_path / "a.jsonl", [
            json.dumps(self.journey(1)), "garbage",
        ])
        journeys, warnings = load_journeys([path], malformed="skip")
        assert len(journeys) == 1
        assert len(warnings) == 1 and "line 2" in warnings[0]


class TestLoadFaultPlan:
    def test_canonical_round_trip(self, tmp_path):
        plan = {
            "name": "p",
            "faults": [{"injector": "dmi.frame_drop", "target": "0",
                        "schedule": "periodic", "start_ps": 0,
                        "period_ps": 1000, "count": 2, "label": "drop"}],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        canonical = load_fault_plan(path)
        assert json.loads(canonical)["name"] == "p"
        # loading the canonical form again is a fixed point
        path.write_text(canonical, encoding="utf-8")
        assert load_fault_plan(path) == canonical

    def test_unreadable_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_fault_plan(tmp_path / "nope.json")


class TestLoadReport:
    def test_loads_from_directory(self, tmp_path):
        (tmp_path / "report.json").write_text(
            json.dumps({"schema": "repro.report/v1", "suite": "s"}),
            encoding="utf-8",
        )
        assert load_report(tmp_path)["suite"] == "s"

    def test_rejects_schemaless_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"suite": "s"}), encoding="utf-8")
        with pytest.raises(ArtifactError):
            load_report(path)


class TestStreamHelpers:
    def test_records_of_kind_and_first_meta(self):
        records = [
            {"kind": "journey", "n": 1},
            {"kind": "meta", "n": 2},
            {"kind": "journey", "n": 3},
        ]
        assert [r["n"] for r in records_of_kind(records, "journey")] == [1, 3]
        assert first_meta(records)["n"] == 2
        assert first_meta([]) is None
