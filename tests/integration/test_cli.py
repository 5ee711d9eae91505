"""Integration tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in ("T1", "F8", "F15", "X4"):
        assert experiment_id in out


def test_run_table1(capsys):
    assert main(["run", "T1"]) == 0
    out = capsys.readouterr().out
    assert "Cisco" in out
    assert "Juniper" in out
    assert "1000" in out


def test_run_fig3(capsys):
    assert main(["run", "F3"]) == 0
    out = capsys.readouterr().out
    assert "penalty" in out


def test_run_multiple(capsys):
    assert main(["run", "T1", "F3"]) == 0
    out = capsys.readouterr().out
    assert "T1" in out and "F3" in out


def test_run_unknown_experiment():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        main(["run", "F99"])


def test_simulate_small_mesh(capsys):
    code = main(
        [
            "simulate",
            "--topology", "mesh",
            "--nodes", "16",
            "--pulses", "1",
            "--damping", "cisco",
            "--seed", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "convergence time" in out
    assert "mesh-4x4" in out


def test_simulate_damping_off(capsys):
    code = main(
        ["simulate", "--topology", "mesh", "--nodes", "16", "--pulses", "2",
         "--damping", "off", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "suppressions" in out


def test_simulate_internet_with_rcn(capsys):
    code = main(
        ["simulate", "--topology", "internet", "--nodes", "30", "--pulses", "1",
         "--rcn", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cisco + RCN" in out


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_intended_command(capsys):
    assert main(["intended", "--pulses", "4", "--vendor", "cisco"]) == 0
    out = capsys.readouterr().out
    assert "suppressed" in out
    assert "yes" in out  # suppression onset at pulse 3
    assert "cisco" in out


def test_intended_command_juniper(capsys):
    assert main(["intended", "--pulses", "3", "--vendor", "juniper", "--tup", "10"]) == 0
    out = capsys.readouterr().out
    assert "juniper" in out


def test_run_with_csv_export(capsys, tmp_path):
    assert main(["run", "T1", "--csv-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "T1.csv").exists()


# ----------------------------------------------------------------------
# lint subcommand (detlint)
# ----------------------------------------------------------------------


def test_lint_clean_tree_exits_zero(capsys):
    import pathlib

    import repro

    src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
    assert main(["lint", str(src_dir)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_seeded_violation_exits_nonzero(capsys, tmp_path):
    """Acceptance: a DET001/DET002 fixture fails with rule id and file:line."""
    fixture = tmp_path / "violations.py"
    fixture.write_text(
        "import random\n"
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.time()\n"
        "\n"
        "def draw():\n"
        "    return random.Random(0).random()\n",
        encoding="utf-8",
    )
    assert main(["lint", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET002" in out
    assert f"{fixture}:5:" in out  # file:line of the wall-clock read


def test_lint_suppression_comment_restores_exit_zero(capsys, tmp_path):
    fixture = tmp_path / "suppressed.py"
    fixture.write_text(
        "import time\n"
        "t = time.time()  # detlint: disable=DET001\n",
        encoding="utf-8",
    )
    assert main(["lint", str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "1 suppressed" in out


def test_lint_json_format(capsys, tmp_path):
    import json

    fixture = tmp_path / "bad.py"
    fixture.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main(["lint", "--format", "json", str(fixture)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts_by_rule"] == {"DET001": 1}


def test_lint_cache_dir_reports_stats_and_identical_json(capsys, tmp_path):
    fixture = tmp_path / "bad.py"
    fixture.write_text("import time\nt = time.time()\n", encoding="utf-8")
    cache_dir = tmp_path / "lint_cache"
    assert main(
        ["lint", "--format", "json", "--cache-dir", str(cache_dir), str(fixture)]
    ) == 1
    cold = capsys.readouterr()
    assert main(
        ["lint", "--format", "json", "--cache-dir", str(cache_dir), str(fixture)]
    ) == 1
    warm = capsys.readouterr()
    # Findings JSON is byte-identical; the cache stats line goes to stderr.
    assert warm.out == cold.out
    assert "lint cache:" in warm.err
    assert "1/1 local hits" in warm.err


def test_lint_jobs_matches_sequential_output(capsys, tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
    assert main(["lint", "--format", "json", str(tmp_path)]) == 1
    sequential = capsys.readouterr().out
    assert main(["lint", "--format", "json", "--jobs", "2", str(tmp_path)]) == 1
    parallel = capsys.readouterr().out
    assert parallel == sequential


def test_lint_rejects_bad_jobs(capsys):
    assert main(["lint", "--jobs", "0", "src"]) == 2


def test_lint_select_and_ignore(capsys, tmp_path):
    fixture = tmp_path / "bad.py"
    fixture.write_text("import time\nt = time.time()\n", encoding="utf-8")
    assert main(["lint", "--ignore", "DET001", str(fixture)]) == 0
    capsys.readouterr()
    assert main(["lint", "--select", "DET002", str(fixture)]) == 0


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "DET008" in out


def test_lint_unknown_rule_id_is_usage_error(capsys):
    assert main(["lint", "--select", "DET999", "src"]) == 2
    assert "DET999" in capsys.readouterr().err


def test_lint_missing_path_is_usage_error(capsys):
    assert main(["lint", "/nonexistent/path/xyz"]) == 2

# ----------------------------------------------------------------------
# lint passes (semlint), baselines, invariant checking
# ----------------------------------------------------------------------


MIXED_FIXTURE = (
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
    "\n"
    "def is_fresh(rcn, last_seq):\n"
    "    return rcn.seq != last_seq\n"
)


def test_lint_pass_selection(capsys, tmp_path):
    fixture = tmp_path / "mixed.py"
    fixture.write_text(MIXED_FIXTURE, encoding="utf-8")

    assert main(["lint", "--pass", "det", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "SEM006" not in out

    assert main(["lint", "--pass", "sem", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "SEM006" in out and "DET001" not in out

    assert main(["lint", "--pass", "all", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "SEM006" in out


def test_lint_list_rules_includes_sem_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SEM001" in out and "SEM007" in out


def test_lint_baseline_record_and_compare(capsys, tmp_path):
    fixture = tmp_path / "legacy.py"
    fixture.write_text(MIXED_FIXTURE, encoding="utf-8")
    baseline = tmp_path / "lint-baseline.json"

    # Without a baseline the findings fail the run.
    assert main(["lint", str(fixture)]) == 1
    capsys.readouterr()

    # Record: writes the ledger and exits clean.
    assert (
        main(["lint", "--baseline", str(baseline), "--update-baseline", str(fixture)])
        == 0
    )
    capsys.readouterr()
    assert baseline.exists()

    # Compare: known findings are demoted, run is clean again.
    assert main(["lint", "--baseline", str(baseline), str(fixture)]) == 0
    out = capsys.readouterr().out
    assert "2 baselined" in out

    # A new finding is NOT covered by the ledger.
    fixture.write_text(MIXED_FIXTURE + '\nfor name in {"a", "b"}:\n    pass\n',
                       encoding="utf-8")
    assert main(["lint", "--baseline", str(baseline), str(fixture)]) == 1
    assert "DET003" in capsys.readouterr().out


def test_lint_update_baseline_requires_baseline_path(capsys):
    assert main(["lint", "--update-baseline", "src"]) == 2
    assert "--baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# timerlint pass, --fail-on, timer audit
# ----------------------------------------------------------------------


TIMER_FIXTURE = (
    "from repro.sim.timers import Timer\n"
    "\n"
    "DELAY = 5.0\n"
    "\n"
    "def leak(engine, cb):\n"
    '    t = Timer(engine, cb, name="x", actor="r", tag="reuse")\n'
    "    t.start(DELAY)\n"
)

#: Fires only warning-severity rules (TIM007).
WARNING_FIXTURE = (
    "from repro.sim.timers import Timer\n"
    "\n"
    "def build(engine, cb):\n"
    '    return Timer(engine, cb, name="x")\n'
)


def test_lint_pass_tim_selection(capsys, tmp_path):
    fixture = tmp_path / "timers.py"
    fixture.write_text(MIXED_FIXTURE + "\n" + TIMER_FIXTURE, encoding="utf-8")

    assert main(["lint", "--pass", "tim", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "DET001" not in out and "SEM006" not in out

    assert main(["lint", "--pass", "all", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "DET001" in out and "SEM006" in out


def test_lint_list_rules_includes_tim_catalogue(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "TIM001" in out and "TIM010" in out
    assert "TIM003 [warning]" in out


def test_lint_fail_on_exit_codes(capsys, tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text(TIMER_FIXTURE, encoding="utf-8")
    warnings = tmp_path / "warnings.py"
    warnings.write_text(WARNING_FIXTURE, encoding="utf-8")

    # Default --fail-on warning: any finding fails.
    assert main(["lint", str(warnings)]) == 1
    capsys.readouterr()

    # --fail-on error: warning-only findings are reported but exit 0.
    assert main(["lint", "--fail-on", "error", str(warnings)]) == 0
    out = capsys.readouterr().out
    assert "TIM007" in out

    # ... while error findings still fail.
    assert main(["lint", "--fail-on", "error", str(errors)]) == 1
    capsys.readouterr()

    # --fail-on never: findings never fail the run.
    assert main(["lint", "--fail-on", "never", str(errors)]) == 0
    capsys.readouterr()

    # ... but parse errors always do.
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    assert main(["lint", "--fail-on", "never", str(broken)]) == 1
    capsys.readouterr()


def test_lint_fail_on_bad_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--fail-on", "bogus", "src"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_lint_compare_against_empty_baseline(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    baseline = tmp_path / "empty-baseline.json"
    assert (
        main(["lint", "--baseline", str(baseline), "--update-baseline", str(clean)])
        == 0
    )
    capsys.readouterr()

    # An empty ledger demotes nothing: new findings still fail.
    dirty = tmp_path / "dirty.py"
    dirty.write_text(TIMER_FIXTURE, encoding="utf-8")
    assert main(["lint", "--baseline", str(baseline), str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "TIM001" in out and "baselined" not in out


def test_simulate_audit_timers(capsys):
    code = main(
        [
            "simulate",
            "--nodes", "9",
            "--pulses", "1",
            "--seed", "11",
            "--audit-timers",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "timer audit" in out
    assert "ok (" in out and "transitions" in out


def test_simulate_check_invariants(capsys):
    assert (
        main(
            [
                "simulate",
                "--nodes",
                "9",
                "--pulses",
                "1",
                "--check-invariants",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "invariants" in out
    assert "ok (9 routers)" in out


def test_run_check_invariants(capsys):
    from repro.experiments.base import invariant_checking_enabled, set_invariant_checking

    try:
        assert main(["run", "F3", "--check-invariants"]) == 0
    finally:
        set_invariant_checking(False)
    assert not invariant_checking_enabled()
    assert "F3" in capsys.readouterr().out


# ----------------------------------------------------------------------
# trace subcommand and smoke-digest verification
# ----------------------------------------------------------------------


def test_trace_small_mesh(capsys, tmp_path):
    out_path = tmp_path / "trace.jsonl"
    summary_path = tmp_path / "summary.json"
    profile_path = tmp_path / "profile.json"
    code = main(
        [
            "trace",
            "--topology", "mesh",
            "--nodes", "16",
            "--pulses", "2",
            "--seed", "5",
            "--out", str(out_path),
            "--json", str(summary_path),
            "--profile", str(profile_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "causal trace summary" in out
    assert "trace digest" in out

    import json as _json

    from repro.trace import parse_jsonl

    records = parse_jsonl(out_path.read_text(encoding="utf-8"))
    assert records
    assert sum(1 for r in records if r.kind == "flap") == 4

    summary = _json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["records_total"] == len(records)
    profile = _json.loads(profile_path.read_text(encoding="utf-8"))
    assert profile["schema"] == 2
    names = [p["phase"] for p in profile["phases"]]
    # Explicit phases first (in execution order), then the engine
    # probe's labelled sub-phases.
    assert names[:4] == ["build", "warm_up", "episode", "rib_scan"]
    assert "decision_process" in names
    probe_rows = [p for p in profile["phases"] if p.get("source") == "engine_probe"]
    assert probe_rows and all(r["events"] > 0 for r in probe_rows)


def test_trace_show_filters_by_kind(capsys):
    assert main(["trace", "--nodes", "9", "--pulses", "1", "--show", "2",
                 "--kinds", "flap"]) == 0
    out = capsys.readouterr().out
    assert '"kind":"flap"' in out
    assert '"kind":"send"' not in out


def test_trace_rejects_unknown_kind(capsys):
    assert main(["trace", "--nodes", "9", "--pulses", "1",
                 "--kinds", "nonsense"]) == 2
    assert "unknown kind" in capsys.readouterr().err


def test_run_smoke_digest_round_trip(capsys, tmp_path):
    from repro.experiments.base import set_smoke_mode, smoke_mode_enabled

    digests = tmp_path / "digests.json"
    try:
        assert main(["run", "F8", "--smoke", "--write-digests", str(digests)]) == 0
        capsys.readouterr()
        assert main(["run", "F8", "--smoke", "--verify-digests", str(digests)]) == 0
    finally:
        set_smoke_mode(False)
    assert not smoke_mode_enabled()
    assert "all sweep digests match" in capsys.readouterr().out


def test_run_smoke_digest_mismatch_fails(capsys, tmp_path):
    import json as _json

    from repro.experiments.base import set_smoke_mode

    digests = tmp_path / "digests.json"
    try:
        assert main(["run", "F8", "--smoke", "--write-digests", str(digests)]) == 0
        payload = _json.loads(digests.read_text(encoding="utf-8"))
        series = next(iter(payload["F8"]))
        payload["F8"][series]["1"] = "0" * 64
        digests.write_text(_json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "F8", "--smoke", "--verify-digests", str(digests)]) == 1
    finally:
        set_smoke_mode(False)
    assert "digest mismatch" in capsys.readouterr().err


def test_committed_smoke_digests_match_current_code(capsys):
    """The expectation file CI pins the smoke sweep to must track the
    simulator: if this fails, regenerate it with
    ``rfd-repro run F8 --smoke --write-digests benchmarks/results/f8_smoke_digests.json``."""
    import pathlib

    from repro.experiments.base import set_smoke_mode

    committed = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "f8_smoke_digests.json"
    )
    try:
        assert main(["run", "F8", "--smoke", "--verify-digests", str(committed)]) == 0
    finally:
        set_smoke_mode(False)
    assert "all sweep digests match" in capsys.readouterr().out


def test_run_smoke_with_jobs_matches_committed_digests(capsys):
    """Running the points in worker processes must not move a digest:
    the pooled smoke sweep still matches the committed F8 expectation
    file."""
    import pathlib

    from repro.experiments.base import set_smoke_mode

    committed = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "f8_smoke_digests.json"
    )
    try:
        assert (
            main(
                [
                    "run", "F8", "--smoke",
                    "--jobs", "2",
                    "--verify-digests", str(committed),
                ]
            )
            == 0
        )
    finally:
        set_smoke_mode(False)
        from repro.experiments.base import set_default_jobs

        set_default_jobs(1)
    assert "all sweep digests match" in capsys.readouterr().out
