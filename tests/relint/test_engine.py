"""The relint engine: suppression semantics, the fixture-corpus
exclusion, the CLI contract — and the pins that keep the live tree
clean (CI runs the same command; these tests make a dirty tree a test
failure before it is a CI failure)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tools.relint.engine import (
    SUPPRESSION_ID,
    Violation,
    lint_paths,
    lint_source,
    main,
)
from tools.relint.rules import ALL_RULES

REPO = Path(__file__).resolve().parents[2]

#: One R5 violation, nothing else.
WALLCLOCK = (
    "import time\n"
    "\n"
    "\n"
    "def mark():\n"
    "    start = time.time()\n"
    "    return start\n"
)


def rule_ids(violations) -> list:
    return [v.rule_id for v in violations]


class TestSuppressions:
    def test_unsuppressed_violation_survives(self):
        assert rule_ids(lint_source(WALLCLOCK)) == ["R5"]

    def test_trailing_suppression_with_reason_silences(self):
        src = WALLCLOCK.replace(
            "time.time()",
            "time.time()  # relint: disable=R5 (wall-clock mark is the point here)",
        )
        assert lint_source(src) == []

    def test_standalone_suppression_covers_next_code_line(self):
        src = WALLCLOCK.replace(
            "    start = time.time()",
            "    # relint: disable=R5 (wall-clock mark is the point here)\n"
            "    start = time.time()",
        )
        assert lint_source(src) == []

    def test_reason_is_mandatory(self):
        src = WALLCLOCK.replace(
            "time.time()", "time.time()  # relint: disable=R5"
        )
        ids = rule_ids(lint_source(src))
        # The reasonless disable is itself a violation AND does not
        # suppress anything.
        assert sorted(ids) == [SUPPRESSION_ID, "R5"]

    def test_unknown_rule_id_is_rejected(self):
        src = WALLCLOCK.replace(
            "time.time()", "time.time()  # relint: disable=R99 (no such rule)"
        )
        assert sorted(rule_ids(lint_source(src))) == [SUPPRESSION_ID, "R5"]

    def test_r0_itself_cannot_be_suppressed(self):
        src = "x = 1  # relint: disable=R0 (trying to silence the hygiene rule)\n"
        ids = rule_ids(lint_source(src))
        assert ids == [SUPPRESSION_ID]

    def test_unused_suppression_is_a_violation(self):
        src = "x = 1  # relint: disable=R5 (nothing here ever fired)\n"
        violations = lint_source(src)
        assert rule_ids(violations) == [SUPPRESSION_ID]
        assert "never" in violations[0].message

    def test_unused_suppression_exempt_under_rule_filter(self):
        """Running a rule subset must not flag suppressions of the rules
        that did not run (they may well fire on full runs)."""
        src = "x = 1  # relint: disable=R5 (nothing here ever fired)\n"
        r9_only = [r for r in ALL_RULES if r.rule_id == "R9"]
        assert lint_source(src, rules=r9_only) == []

    def test_directive_inside_a_string_is_inert(self):
        src = 'example = "# relint: disable=R5 (not a real comment)"\n'
        assert lint_source(src) == []

    def test_malformed_directive_is_flagged(self):
        src = "x = 1  # relint: disable R5 -- forgot the equals sign\n"
        violations = lint_source(src)
        assert rule_ids(violations) == [SUPPRESSION_ID]
        assert "malformed" in violations[0].message

    def test_syntax_error_reports_instead_of_crashing(self):
        violations = lint_source("def broken(:\n")
        assert len(violations) == 1
        assert violations[0].rule_name == "parse-error"


class TestFixtureExclusion:
    def test_fixture_corpus_is_skipped_by_default(self):
        violations, checked = lint_paths([str(Path(__file__).parent)])
        assert violations == []
        assert checked >= 2  # the test modules themselves

    def test_include_fixtures_lints_the_corpus(self):
        violations, checked = lint_paths(
            [str(Path(__file__).parent)], include_fixtures=True
        )
        assert checked >= 20
        assert violations  # the bad_* files fire by design


class TestCli:
    def test_violations_exit_nonzero_with_json(self, tmp_path, capsys):
        target = tmp_path / "sample.py"
        target.write_text(WALLCLOCK)
        code = main([str(target), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["files_checked"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["R5"]
        assert payload["violations"][0]["line"] == 5

    def test_rule_filter(self, tmp_path, capsys):
        target = tmp_path / "sample.py"
        target.write_text(WALLCLOCK)
        assert main([str(target), "--rule", "R9"]) == 0
        assert main([str(target), "--rule", "R5"]) == 1

    def test_list_rules_covers_the_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out
        assert SUPPRESSION_ID in out

    def test_nonexistent_path_is_an_error_not_a_clean_pass(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([str(tmp_path / "no_such_dir")])
        assert info.value.code == 2

    def test_render_is_path_line_col_rule(self):
        violation = Violation("a.py", 3, 7, "R5", "wallclock-duration", "msg")
        assert violation.render() == "a.py:3:7: R5 [wallclock-duration] msg"


class TestLiveTree:
    """CI's exact invocations, as tests: the tree stays lintable."""

    def test_live_tree_is_clean(self):
        violations, checked = lint_paths(
            [str(REPO / part) for part in ("src", "tests", "benchmarks", "examples", "bench")]
        )
        assert [v.render() for v in violations] == []
        assert checked > 150

    def test_relint_lints_itself_clean(self):
        violations, checked = lint_paths([str(REPO / "tools")])
        assert [v.render() for v in violations] == []
        assert checked >= 5


class TestRegressionPins:
    """The sweeps behind the fixed defects stay at zero findings."""

    def test_src_has_no_wallclock_durations(self):
        r5 = [r for r in ALL_RULES if r.rule_id == "R5"]
        violations, _ = lint_paths([str(REPO / "src")], rules=r5)
        assert [v.render() for v in violations] == []

    def test_server_executor_submissions_carry_context(self):
        """PR 9's defect #1: ``_query_many_threads`` submitted work
        without copying the caller's context, so engine spans detached
        from the request trace.  That fan-out is deleted; the sweep
        still guards every executor left in the serving layer."""
        r4 = [r for r in ALL_RULES if r.rule_id == "R4"]
        violations, _ = lint_paths(
            [str(REPO / "src" / "repro" / "service")], rules=r4
        )
        assert [v.render() for v in violations] == []

    def test_coordinator_has_no_silent_broad_excepts(self):
        """PR 9's defect #2: ``shard_obs_sections`` swallowed scrape
        failures with a bare ``except Exception: pass``."""
        r9 = [r for r in ALL_RULES if r.rule_id == "R9"]
        violations, _ = lint_paths(
            [str(REPO / "src" / "repro" / "service")], rules=r9
        )
        assert [v.render() for v in violations] == []
