"""Tests for `repro.analysis` — the detlint static analyzer.

Each rule gets a positive fixture (the hazard fires), a negative one
(the idiomatic form stays clean), plus suppression behavior; the
suite ends with the self-run gate asserting the shipped `repro`
package itself is lint-clean, which is the same bar CI holds.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (AnalysisError, EXIT_CLEAN, EXIT_FINDINGS,
                            EXIT_USAGE, REGISTRY, LintResult,
                            collect_targets, run_lint)


def lint_text(tmp_path, text, rules=None, name="sample.py"):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return run_lint([target], rule_filter=rules, root=tmp_path)


def rules_of(result):
    return [finding.rule for finding in result.findings]


class TestD001UnorderedIteration:
    def test_for_loop_over_set_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "s = {1, 2, 3}\n"
                           "for x in s:\n"
                           "    print(x)\n",
                           rules=["D001"])
        assert rules_of(result) == ["D001"]
        assert result.findings[0].line == 2

    def test_sorted_wrapper_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "s = {1, 2, 3}\n"
                           "for x in sorted(s):\n"
                           "    print(x)\n",
                           rules=["D001"])
        assert result.clean

    def test_set_literal_materialized_by_list_flagged(self, tmp_path):
        result = lint_text(tmp_path, "xs = list({3, 1, 2})\n",
                           rules=["D001"])
        assert rules_of(result) == ["D001"]

    def test_comprehension_from_set_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "s = {1, 2}\n"
                           "doubled = [x * 2 for x in s]\n",
                           rules=["D001"])
        assert rules_of(result) == ["D001"]

    def test_set_comprehension_from_set_is_clean(self, tmp_path):
        # A set built from a set leaks no ordering.
        result = lint_text(tmp_path,
                           "s = {1, 2}\n"
                           "t = {x * 2 for x in s}\n",
                           rules=["D001"])
        assert result.clean

    def test_generator_into_order_free_consumer_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "s = {1, 2}\n"
                           "m = max(x for x in s)\n",
                           rules=["D001"])
        assert result.clean

    def test_dict_iteration_is_not_flagged(self, tmp_path):
        # Dicts preserve insertion order; only sets are unordered.
        result = lint_text(tmp_path,
                           "d = {'a': 1}\n"
                           "for k in d:\n"
                           "    print(k)\n",
                           rules=["D001"])
        assert result.clean

    def test_set_algebra_result_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "a = {1}\n"
                           "b = {2}\n"
                           "for x in a | b:\n"
                           "    print(x)\n",
                           rules=["D001"])
        assert rules_of(result) == ["D001"]


class TestD002WallClock:
    def test_time_time_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "import time\n"
                           "stamp = time.time()\n",
                           rules=["D002"])
        assert rules_of(result) == ["D002"]

    def test_from_import_perf_counter_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "from time import perf_counter\n"
                           "t0 = perf_counter()\n",
                           rules=["D002"])
        assert rules_of(result) == ["D002"]

    def test_time_sleep_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "import time\n"
                           "time.sleep(0)\n",
                           rules=["D002"])
        assert result.clean

    def test_profiler_module_is_allowlisted(self, tmp_path):
        result = lint_text(tmp_path,
                           "import time\n"
                           "NOW = time.time()\n",
                           rules=["D002"],
                           name="repro/fleet/obs/profiler.py")
        assert result.clean

    def test_run_seconds_stamping_function_is_allowlisted(self, tmp_path):
        text = ("import time\n"
                "def run(prof):\n"
                "    t0 = time.perf_counter()\n"
                "    prof.run_seconds = time.perf_counter() - t0\n"
                "def elsewhere():\n"
                "    return time.perf_counter()\n")
        result = lint_text(tmp_path, text, rules=["D002"],
                           name="repro/fleet/simulator.py")
        # Only the non-stamping function's read survives.
        assert rules_of(result) == ["D002"]
        assert result.findings[0].line == 6


class TestD003UnseededRandomness:
    def test_stdlib_random_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "import random\n"
                           "x = random.random()\n",
                           rules=["D003"])
        assert rules_of(result) == ["D003"]

    def test_numpy_global_state_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "import numpy as np\n"
                           "np.random.seed(0)\n"
                           "x = np.random.normal()\n",
                           rules=["D003"])
        assert rules_of(result) == ["D003", "D003"]

    def test_seeded_generator_construction_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "import numpy as np\n"
                           "rng = np.random.default_rng(7)\n"
                           "x = rng.normal()\n",
                           rules=["D003"])
        assert result.clean


class TestD004UnsortedJson:
    def test_dumps_without_sort_keys_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json\n"
                           "s = json.dumps({'a': 1})\n",
                           rules=["D004"])
        assert rules_of(result) == ["D004"]

    def test_sort_keys_false_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json\n"
                           "s = json.dumps({}, sort_keys=False)\n",
                           rules=["D004"])
        assert rules_of(result) == ["D004"]

    def test_sort_keys_true_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json\n"
                           "s = json.dumps({}, sort_keys=True)\n",
                           rules=["D004"])
        assert result.clean

    def test_json_dump_covered_too(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json\n"
                           "def save(obj, fh):\n"
                           "    json.dump(obj, fh)\n",
                           rules=["D004"])
        assert rules_of(result) == ["D004"]

    def test_encoder_without_sort_keys_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json\n"
                           "ENCODER = json.JSONEncoder(indent=2)\n",
                           rules=["D004"])
        assert rules_of(result) == ["D004"]

    def test_encoder_with_sort_keys_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json\n"
                           "ENCODER = json.JSONEncoder(sort_keys=True)\n",
                           rules=["D004"])
        assert result.clean


class TestD005UnorderedAccumulation:
    def test_sum_over_dict_values_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "def total(d):\n"
                           "    return sum(d.values())\n",
                           rules=["D005"])
        assert rules_of(result) == ["D005"]

    def test_provably_int_elements_are_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "def total(d):\n"
                           "    return sum(len(v) for v in d.values())\n",
                           rules=["D005"])
        assert result.clean

    def test_sorted_source_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "def total(d):\n"
                           "    return sum(sorted(d.values()))\n",
                           rules=["D005"])
        assert result.clean

    def test_augassign_in_dict_view_loop_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "def total(d):\n"
                           "    acc = 0.0\n"
                           "    for v in d.values():\n"
                           "        acc += v\n"
                           "    return acc\n",
                           rules=["D005"])
        assert rules_of(result) == ["D005"]
        assert result.findings[0].line == 4

    def test_nested_unordered_loops_report_once(self, tmp_path):
        # One hazard, two enclosing flagged loops: still one finding.
        result = lint_text(tmp_path,
                           "def total(d):\n"
                           "    acc = 0.0\n"
                           "    for inner in d.values():\n"
                           "        for v in inner.values():\n"
                           "            acc += v\n"
                           "    return acc\n",
                           rules=["D005"])
        assert rules_of(result) == ["D005"]

    def test_sum_over_set_expression_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "weights = {0.1, 0.2}\n"
                           "total = sum(weights)\n",
                           rules=["D005"])
        assert rules_of(result) == ["D005"]


class TestSuppressions:
    def test_trailing_comment_silences(self, tmp_path):
        result = lint_text(
            tmp_path,
            "def total(d):\n"
            "    return sum(d.values())"
            "  # detlint: ignore[D005] int counters\n",
            rules=["D005", "U100"])
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["D005"]

    def test_standalone_comment_covers_next_line(self, tmp_path):
        result = lint_text(
            tmp_path,
            "def total(d):\n"
            "    # detlint: ignore[D005] int counters\n"
            "    return sum(d.values())\n",
            rules=["D005", "U100"])
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["D005"]

    def test_multi_rule_suppression(self, tmp_path):
        result = lint_text(
            tmp_path,
            "import json\n"
            "s = {1, 2}\n"
            "# detlint: ignore[D001,D004] fixture\n"
            "blob = json.dumps(list(s))\n",
            rules=["D001", "D004", "U100"])
        assert result.clean
        assert sorted(f.rule for f in result.suppressed) == \
            ["D001", "D004"]

    def test_unused_suppression_becomes_u100(self, tmp_path):
        result = lint_text(
            tmp_path,
            "# detlint: ignore[D001] nothing here needs this\n"
            "x = [1, 2, 3]\n",
            rules=["D001", "U100"])
        assert rules_of(result) == ["U100"]

    def test_unrun_rules_do_not_condemn_annotations(self, tmp_path):
        # `--rules D001` must not flag a D002 annotation as stale.
        result = lint_text(
            tmp_path,
            "import time\n"
            "# detlint: ignore[D002] fixture clock\n"
            "stamp = time.time()\n",
            rules=["D001", "U100"])
        assert result.clean

    def test_marker_inside_string_literal_is_inert(self, tmp_path):
        result = lint_text(
            tmp_path,
            "DOC = '# detlint: ignore[D001] not a comment'\n"
            "s = {1, 2}\n"
            "xs = list(s)\n",
            rules=["D001", "U100"])
        assert rules_of(result) == ["D001"]


class TestC101Facade:
    def test_unresolvable_export_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "__all__ = ['ghost']\n",
                           rules=["C101"], name="pkg/__init__.py")
        assert rules_of(result) == ["C101"]
        assert "ghost" in result.findings[0].message

    def test_duplicate_export_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "x = 1\n"
                           "__all__ = ['x', 'x']\n",
                           rules=["C101"], name="pkg/__init__.py")
        assert rules_of(result) == ["C101"]
        assert "twice" in result.findings[0].message

    def test_public_definition_left_unexported_flagged(self, tmp_path):
        result = lint_text(tmp_path,
                           "__all__ = ['x']\n"
                           "x = 1\n"
                           "def helper():\n"
                           "    return x\n",
                           rules=["C101"], name="pkg/__init__.py")
        assert rules_of(result) == ["C101"]
        assert "helper" in result.findings[0].message

    def test_honest_facade_is_clean(self, tmp_path):
        result = lint_text(tmp_path,
                           "__all__ = ['x', 'helper']\n"
                           "x = 1\n"
                           "def helper():\n"
                           "    return x\n"
                           "def _private():\n"
                           "    return None\n",
                           rules=["C101"], name="pkg/__init__.py")
        assert result.clean

    def test_from_import_of_missing_symbol_flagged(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "mod.py").write_text("present = 1\n")
        (tmp_path / "repro" / "user.py").write_text(
            "from repro.mod import absent\n")
        result = run_lint([tmp_path / "repro"], rule_filter=["C101"],
                          root=tmp_path)
        assert rules_of(result) == ["C101"]
        assert "absent" in result.findings[0].message


class TestC102SchemaDrift:
    def _schema_tree(self, tmp_path):
        fleet = tmp_path / "repro" / "fleet"
        fleet.mkdir(parents=True)
        (fleet / "telemetry.py").write_text(
            "def summary(self):\n"
            "    return {'goodput': 1.0, 'jobs_submitted': 2}\n")
        return tmp_path / "repro"

    def test_unknown_summary_key_flagged(self, tmp_path):
        package = self._schema_tree(tmp_path)
        (package / "consumer.py").write_text(
            "def read(sim):\n"
            "    return sim.summary['goodptu']\n")
        result = run_lint([package], rule_filter=["C102"],
                          root=tmp_path)
        assert rules_of(result) == ["C102"]
        assert "goodptu" in result.findings[0].message

    def test_known_summary_key_is_clean(self, tmp_path):
        package = self._schema_tree(tmp_path)
        (package / "consumer.py").write_text(
            "def read(sim):\n"
            "    return sim.summary['goodput']\n")
        result = run_lint([package], rule_filter=["C102"],
                          root=tmp_path)
        assert result.clean

    def test_trace_writer_reader_drift_flagged(self, tmp_path):
        fleet = tmp_path / "repro" / "fleet"
        fleet.mkdir(parents=True)
        (fleet / "trace.py").write_text(
            "_JOB_KEYS = {'type', 'job_id'}\n"
            "def dumps_trace(trace):\n"
            "    return [{'type': 'job', 'jid': 1}]\n")
        result = run_lint([tmp_path / "repro"], rule_filter=["C102"],
                          root=tmp_path)
        assert rules_of(result) == ["C102"]
        assert "jid" in result.findings[0].message

    def test_trace_template_drift_flagged(self, tmp_path):
        fleet = tmp_path / "repro" / "fleet"
        fleet.mkdir(parents=True)
        (fleet / "trace.py").write_text(
            "_JOB_KEYS = {'type', 'job_id'}\n"
            "_JOB_LINE = '{\"jid\": %s, \"type\": \"job\"}'\n"
            "def dumps_trace(trace):\n"
            "    return [_JOB_LINE % 1]\n")
        result = run_lint([tmp_path / "repro"], rule_filter=["C102"],
                          root=tmp_path)
        assert rules_of(result) == ["C102"]
        assert "jid" in result.findings[0].message
        assert result.findings[0].line == 2


class TestEngineAndResult:
    def test_unknown_rule_raises_analysis_error(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        with pytest.raises(AnalysisError, match="unknown rule"):
            run_lint([target], rule_filter=["D999"])

    def test_missing_target_raises_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="does not exist"):
            run_lint([tmp_path / "absent.py"])

    def test_syntax_error_raises_analysis_error(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def (:\n")
        with pytest.raises(AnalysisError, match="cannot parse"):
            run_lint([target])

    def test_collect_targets_sorted_and_skips_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.pyc.py").write_text("")
        targets = collect_targets([tmp_path])
        assert targets == [tmp_path / "a.py", tmp_path / "b.py"]

    def test_findings_sorted_and_json_deterministic(self, tmp_path):
        result = lint_text(tmp_path,
                           "import json, time\n"
                           "b = time.time()\n"
                           "a = json.dumps({})\n",
                           rules=["D002", "D004"])
        assert rules_of(result) == ["D002", "D004"]
        assert [f.line for f in result.findings] == [2, 3]
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro.detlint"
        assert payload["version"] == 1
        assert payload["counts"] == {"findings": 2, "suppressed": 0}
        assert result.to_json() == result.to_json()

    def test_render_mentions_counts(self, tmp_path):
        result = lint_text(tmp_path, "x = 1\n")
        assert "0 findings" in result.render()

    def test_exit_code_constants(self):
        assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)

    def test_registry_covers_the_documented_pack(self):
        assert list(REGISTRY) == ["D001", "D002", "D003", "D004", "D005",
                                  "C101", "C102", "U100"]
        assert all(entry.rule_id == rule_id and entry.summary
                   for rule_id, entry in REGISTRY.items())


class TestSelfRun:
    def test_shipped_package_is_lint_clean(self):
        """The CI gate in test form: src/repro has zero unsuppressed
        findings under the full rule pack."""
        package = Path(repro.__file__).parent
        result = run_lint([package])
        assert result.clean, result.render()
        # Every suppression in the tree is load-bearing (no U100) and
        # the whole pack actually ran.
        assert result.rules_run == tuple(REGISTRY)
        assert result.files_checked > 100
