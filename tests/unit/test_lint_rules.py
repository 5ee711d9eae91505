"""Unit tests for the detlint rule catalogue.

Every rule gets the same three-way treatment: a small synthetic fixture
that must fire, the same fixture with a ``# detlint: disable=...``
comment that must stay silent, and compliant code the rule must not
flag. Framework behaviour (suppressions, select/ignore, reporters,
module scoping) is covered at the end.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    LintConfig,
    RULE_IDS,
    all_rule_ids,
    iter_rules,
    lint_paths,
    lint_source,
    make_config,
    parse_suppressions,
    render_json,
    render_rule_list,
    render_text,
)


def findings_for(source: str, module: str = "repro.sim.fixture") -> list:
    report = lint_source(textwrap.dedent(source), path="fixture.py", module=module)
    assert not report.parse_errors
    return report.findings


def rule_ids_of(source: str, module: str = "repro.sim.fixture") -> set:
    return {f.rule_id for f in findings_for(source, module=module)}


# ----------------------------------------------------------------------
# DET001 — wall-clock
# ----------------------------------------------------------------------


class TestDET001:
    def test_fires_on_time_time(self):
        ids = rule_ids_of(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert "DET001" in ids

    def test_fires_on_datetime_now_and_aliased_import(self):
        ids = rule_ids_of(
            """
            from datetime import datetime
            import time as clock

            def stamps():
                return datetime.now(), clock.monotonic()
            """
        )
        assert ids == {"DET001"}
        assert len(findings_for(
            """
            from datetime import datetime
            import time as clock

            def stamps():
                return datetime.now(), clock.monotonic()
            """
        )) == 2

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            import time

            def stamp():
                return time.time()  # detlint: disable=DET001
            """
        )

    def test_quiet_on_engine_clock(self):
        assert not findings_for(
            """
            def stamp(engine):
                return engine.now
            """
        )

    def test_quiet_on_unrelated_time_attribute(self):
        # record.time is simulated time, not the time module
        assert not findings_for(
            """
            def first(records):
                return [r.time for r in records]
            """
        )


# ----------------------------------------------------------------------
# DET002 — global random state
# ----------------------------------------------------------------------


class TestDET002:
    def test_fires_on_module_level_random(self):
        ids = rule_ids_of(
            """
            import random

            def jitter():
                return random.uniform(0.0, 1.0)
            """
        )
        assert "DET002" in ids

    def test_fires_on_literal_seeded_random(self):
        ids = rule_ids_of(
            """
            import random

            def chooser():
                return random.Random(0)
            """
        )
        assert "DET002" in ids

    def test_fires_on_unseeded_random_constructor(self):
        ids = rule_ids_of(
            """
            import random

            def chooser():
                return random.Random()
            """
        )
        assert "DET002" in ids

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            import random

            def jitter():
                return random.random()  # detlint: disable=DET002
            """
        )

    def test_quiet_on_injected_generator_and_derived_seed(self):
        assert not findings_for(
            """
            import random

            def jitter(rng):
                return rng.uniform(0.0, 1.0)

            def derived(seed):
                return random.Random(seed + 1)
            """
        )


# ----------------------------------------------------------------------
# DET003 — set iteration
# ----------------------------------------------------------------------


class TestDET003:
    def test_fires_on_set_literal_loop(self):
        ids = rule_ids_of(
            """
            def drain(a, b):
                for router in {a, b}:
                    router.flush()
            """
        )
        assert "DET003" in ids

    def test_fires_on_set_call_and_comprehension(self):
        source = """
            def emit(names):
                for name in set(names):
                    print(name)
                return [n for n in {x.strip() for x in names}]
            """
        assert "DET003" in rule_ids_of(source)
        assert len([f for f in findings_for(source) if f.rule_id == "DET003"]) >= 2

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            def drain(a, b):
                for router in {a, b}:  # detlint: disable=DET003
                    router.flush()
            """
        )

    def test_quiet_on_sorted_set(self):
        assert not findings_for(
            """
            def drain(names):
                for name in sorted(set(names)):
                    print(name)
            """
        )


# ----------------------------------------------------------------------
# DET004 — hash()/id() ordering
# ----------------------------------------------------------------------


class TestDET004:
    def test_fires_on_hash_sort_key(self):
        ids = rule_ids_of(
            """
            def order(routers):
                return sorted(routers, key=hash)
            """
        )
        assert "DET004" in ids

    def test_fires_on_id_in_lambda_key_and_dict_key(self):
        findings = [
            f
            for f in findings_for(
                """
                def order(routers, a, b):
                    routers.sort(key=lambda r: id(r))
                    table = {hash(a): a}
                    table[id(b)] = b
                    return table
                """
            )
            if f.rule_id == "DET004"
        ]
        assert len(findings) == 3

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            def order(routers):
                return sorted(routers, key=hash)  # detlint: disable=DET004
            """
        )

    def test_quiet_on_name_keys(self):
        assert "DET004" not in rule_ids_of(
            """
            def order(routers):
                return sorted(routers, key=lambda r: r.name)
            """
        )


# ----------------------------------------------------------------------
# DET005 — float time equality
# ----------------------------------------------------------------------


class TestDET005:
    def test_fires_on_time_equality(self):
        ids = rule_ids_of(
            """
            def same_instant(event, engine):
                return event.time == engine.now
            """
        )
        assert "DET005" in ids

    def test_fires_on_inequality(self):
        ids = rule_ids_of(
            """
            def moved(expiry, deadline):
                return expiry != deadline
            """
        )
        assert "DET005" in ids

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            def same_instant(event, engine):
                return event.time == engine.now  # detlint: disable=DET005
            """
        )

    def test_quiet_on_tolerance_nan_check_and_tags(self):
        assert not findings_for(
            """
            def ok(event, engine, record):
                close = abs(event.time - engine.now) <= 1e-9
                nan = event.time != event.time
                tag = record.kind == "reuse"
                return close or nan or tag
            """
        )


# ----------------------------------------------------------------------
# DET006 — re-entrant engine runs
# ----------------------------------------------------------------------


class TestDET006:
    def test_fires_on_closure_calling_run(self):
        ids = rule_ids_of(
            """
            def schedule_probe(engine):
                def probe():
                    engine.run(until=engine.now + 1.0)
                engine.schedule(0.0, probe)
            """
        )
        assert "DET006" in ids

    def test_fires_on_lambda_and_self_engine(self):
        ids = rule_ids_of(
            """
            class Driver:
                def arm(self):
                    self._engine.schedule(0.0, lambda: self._engine.step())
            """
        )
        assert "DET006" in ids

    def test_respects_disable_comment(self):
        assert "DET006" not in rule_ids_of(
            """
            def schedule_probe(engine):
                def probe():
                    engine.run()  # detlint: disable=DET006
                engine.schedule(0.0, probe)
            """
        )

    def test_quiet_on_top_level_run_and_other_receivers(self):
        assert not findings_for(
            """
            def drive(engine, scenario):
                engine.run_until_idle(max_time=100.0)
                return scenario.run(None)

            class Scenario:
                def run(self, schedule):
                    self.engine.run_until_idle(max_time=10.0)
            """
        )


# ----------------------------------------------------------------------
# DET007 — ambient environment access
# ----------------------------------------------------------------------


class TestDET007:
    def test_fires_inside_protected_package(self):
        ids = rule_ids_of(
            """
            import os

            def load():
                flag = os.environ["REPRO_DEBUG"]
                with open("params.txt") as handle:
                    return flag, handle.read()
            """,
            module="repro.core.fixture",
        )
        assert "DET007" in ids

    def test_fires_on_getenv_and_path_reads(self):
        findings = [
            f
            for f in findings_for(
                """
                import os
                import pathlib

                def load(path):
                    a = os.getenv("SEED")
                    b = pathlib.Path(path).read_text()
                    return a, b
                """,
                module="repro.bgp.fixture",
            )
            if f.rule_id == "DET007"
        ]
        assert len(findings) == 2

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            import os

            def load():
                return os.getenv("SEED")  # detlint: disable=DET007
            """,
            module="repro.sim.fixture",
        )

    def test_quiet_outside_protected_packages(self):
        assert not findings_for(
            """
            import os

            def load():
                return os.getenv("SEED")
            """,
            module="repro.experiments.fixture",
        )


# ----------------------------------------------------------------------
# DET008 — mutable defaults
# ----------------------------------------------------------------------


class TestDET008:
    def test_fires_on_public_list_default(self):
        ids = rule_ids_of(
            """
            def run_episode(pulses, hooks=[]):
                return pulses, hooks
            """
        )
        assert "DET008" in ids

    def test_fires_on_dict_set_and_constructor_defaults(self):
        findings = [
            f
            for f in findings_for(
                """
                def configure(overrides={}, tags=set(), *, extra=list()):
                    return overrides, tags, extra
                """
            )
            if f.rule_id == "DET008"
        ]
        assert len(findings) == 3

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            def run_episode(pulses, hooks=[]):  # detlint: disable=DET008
                return pulses, hooks
            """
        )

    def test_quiet_on_none_default_and_private_helpers(self):
        assert not findings_for(
            """
            def run_episode(pulses, hooks=None):
                return pulses, hooks or []

            def _internal(cache=[]):
                return cache
            """
        )


# ----------------------------------------------------------------------
# DET009 — unsorted filesystem iteration
# ----------------------------------------------------------------------


class TestDET009:
    def test_fires_on_listdir_loop(self):
        ids = rule_ids_of(
            """
            import os

            def load(directory):
                for name in os.listdir(directory):
                    print(name)
            """,
            module="repro.experiments.fixture",
        )
        assert "DET009" in ids

    def test_fires_on_glob_scandir_and_path_methods(self):
        findings = [
            f
            for f in findings_for(
                """
                import glob
                import os
                import pathlib

                def discover(root):
                    a = glob.glob("*.csv")
                    b = list(os.scandir(root))
                    c = [p for p in pathlib.Path(root).iterdir()]
                    d = list(pathlib.Path(root).rglob("*.json"))
                    return a, b, c, d
                """,
                module="repro.experiments.fixture",
            )
            if f.rule_id == "DET009"
        ]
        assert len(findings) == 4

    def test_respects_disable_comment(self):
        assert not findings_for(
            """
            import os

            def load(directory):
                return os.listdir(directory)  # detlint: disable=DET009
            """,
            module="repro.experiments.fixture",
        )

    def test_quiet_when_wrapped_in_sorted(self):
        assert not findings_for(
            """
            import glob
            import os
            import pathlib

            def discover(root):
                for name in sorted(os.listdir(root)):
                    print(name)
                a = sorted(glob.glob("*.csv"))
                b = sorted(p.name for p in pathlib.Path(root).iterdir())
                return a, b
            """,
            module="repro.experiments.fixture",
        )

    def test_fires_on_from_import_alias_and_not_on_local_name(self):
        # `from glob import glob` resolves through the alias map and
        # fires; a local helper that happens to be called glob does not.
        assert "DET009" in rule_ids_of(
            """
            from glob import glob

            def discover():
                return glob("*.csv")
            """,
            module="repro.experiments.fixture",
        )
        assert not findings_for(
            """
            def glob(pattern, candidates):
                return [c for c in candidates if pattern in c]

            def discover(candidates):
                return glob("p0", candidates)
            """,
            module="repro.experiments.fixture",
        )


# ----------------------------------------------------------------------
# DET010 — process fan-out outside the sweep executor
# ----------------------------------------------------------------------


class TestDET010:
    def test_fires_on_multiprocessing_import(self):
        ids = rule_ids_of(
            """
            import multiprocessing

            def fan_out(items):
                with multiprocessing.Pool() as pool:
                    return pool.map(str, items)
            """,
            module="repro.experiments.fixture",
        )
        assert "DET010" in ids

    def test_fires_on_concurrent_futures_from_import(self):
        ids = rule_ids_of(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(str, items))
            """,
            module="repro.experiments.fixture",
        )
        assert "DET010" in ids

    def test_fires_on_os_fork(self):
        ids = rule_ids_of(
            """
            import os

            def split():
                return os.fork()
            """,
            module="repro.experiments.fixture",
        )
        assert "DET010" in ids

    def test_silent_in_executor_module(self):
        assert "DET010" not in rule_ids_of(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            """,
            module="repro.experiments.parallel",
        )

    def test_suppression_comment_works(self):
        assert "DET010" not in rule_ids_of(
            """
            import multiprocessing  # detlint: disable=DET010
            """,
            module="repro.experiments.fixture",
        )

    def test_silent_on_unrelated_imports_and_os_use(self):
        assert "DET010" not in rule_ids_of(
            """
            import os
            from concurrentutils import helpers

            def cpu_count():
                return os.cpu_count()
            """,
            module="repro.experiments.fixture",
        )


# ----------------------------------------------------------------------
# framework behaviour
# ----------------------------------------------------------------------


class TestFramework:
    def test_catalogue_is_complete(self):
        expected = (
            {f"DET00{i}" for i in range(1, 10)}
            | {"DET010"}
            | {f"SEM00{i}" for i in range(1, 8)}
            | {f"TIM00{i}" for i in range(1, 10)}
            | {"TIM010"}
        )
        assert set(RULE_IDS) == expected
        assert all_rule_ids() == frozenset(expected)

    def test_every_rule_has_title_and_rationale(self):
        for rule in iter_rules():
            assert rule.id and rule.title and rule.rationale

    def test_disable_all_token(self):
        assert not findings_for(
            """
            import time

            def stamp():
                return time.time()  # detlint: disable=all
            """
        )

    def test_suppressed_findings_are_still_recorded(self):
        report = lint_source(
            "import time\nt = time.time()  # detlint: disable=DET001\n",
            path="fixture.py",
        )
        assert not report.findings
        assert len(report.suppressed) == 1
        assert report.suppressed[0].suppressed

    def test_parse_suppressions_ignores_strings(self):
        mapping = parse_suppressions(
            's = "# detlint: disable=DET001"\nt = 1  # detlint: disable=DET002,DET003\n'
        )
        assert mapping == {2: {"DET002", "DET003"}}

    def test_select_and_ignore(self):
        source = "import time, random\na = time.time()\nb = random.random()\n"
        only_001 = lint_source(
            source, config=make_config(select=("DET001",))
        ).findings
        assert {f.rule_id for f in only_001} == {"DET001"}
        without_001 = lint_source(
            source, config=make_config(ignore=("DET001",))
        ).findings
        assert {f.rule_id for f in without_001} == {"DET002"}

    def test_unknown_rule_id_rejected(self):
        config = make_config(select=("DET999",))
        with pytest.raises(ConfigurationError):
            config.validate(all_rule_ids())

    def test_lint_paths_on_fixture_dir(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        (tmp_path / "good.py").write_text("x = 1\n", encoding="utf-8")
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert [f.rule_id for f in report.findings] == ["DET001"]
        assert report.findings[0].path.endswith("bad.py")
        assert not report.ok

    def test_parse_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="broken.py")
        assert report.parse_errors and not report.ok

    def test_text_reporter_shows_rule_and_location(self):
        report = lint_source("import time\nt = time.time()\n", path="pkg/mod.py")
        text = render_text(report)
        assert "pkg/mod.py:2:" in text
        assert "DET001" in text

    def test_json_reporter_round_trips(self):
        report = lint_source("import time\nt = time.time()\n", path="mod.py")
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"DET001": 1}
        assert payload["findings"][0]["line"] == 2

    def test_rule_list_rendering(self):
        listing = render_rule_list()
        for rule_id in RULE_IDS:
            assert rule_id in listing

    def test_default_config_protects_core_sim_bgp(self):
        config = LintConfig()
        assert config.is_protected_module("repro.core.damping")
        assert config.is_protected_module("repro.sim")
        assert not config.is_protected_module("repro.experiments.fig10")
        assert not config.is_protected_module(None)


# ----------------------------------------------------------------------
# pass selection
# ----------------------------------------------------------------------


class TestPassSelection:
    SOURCE = (
        "import time\n"
        "def f(rcn, last_seq):\n"
        "    t = time.time()\n"
        "    return rcn.seq != last_seq\n"
    )

    def test_det_pass_runs_only_det_rules(self):
        report = lint_source(self.SOURCE, config=make_config(passes=("det",)))
        assert {f.rule_id for f in report.findings} == {"DET001"}

    def test_sem_pass_runs_only_sem_rules(self):
        report = lint_source(self.SOURCE, config=make_config(passes=("sem",)))
        assert {f.rule_id for f in report.findings} == {"SEM006"}

    def test_all_expands_to_both(self):
        report = lint_source(self.SOURCE, config=make_config(passes=("all",)))
        assert {f.rule_id for f in report.findings} == {"DET001", "SEM006"}

    def test_unknown_pass_rejected(self):
        config = make_config(passes=("mem",))
        with pytest.raises(ConfigurationError):
            config.validate(all_rule_ids())

    def test_empty_pass_set_rejected(self):
        config = make_config(passes=())
        with pytest.raises(ConfigurationError):
            config.validate(all_rule_ids())


# ----------------------------------------------------------------------
# suppression scoping: continuation and decorator lines
# ----------------------------------------------------------------------


class TestSuppressionScoping:
    def test_directive_on_continuation_line_is_honoured(self):
        # The flagged call spans three lines; the directive sits on the
        # last one, not on the anchor line.
        assert not findings_for(
            """
            def order(routers):
                return sorted(
                    routers,
                    key=hash,  # detlint: disable=DET004
                )
            """
        )

    def test_directive_on_decorator_line_covers_the_def(self):
        source = """
            import functools

            def mutable_default_ok(fn):
                return fn

            @mutable_default_ok  # detlint: disable=DET008
            def configure(overrides={}):
                return overrides
            """
        assert not findings_for(source)

    def test_directive_inside_function_body_does_not_cover_def_finding(self):
        # SEM001 anchors at the def header; a disable=all buried in the
        # body must not silence it.
        report = lint_source(
            textwrap.dedent(
                """
                def select_best(candidates, engine):
                    t = engine.now  # detlint: disable=all
                    return max(candidates)
                """
            ),
            module="repro.bgp.decision",
        )
        assert {f.rule_id for f in report.findings} == {"SEM001"}

    def test_directive_on_def_header_covers_def_finding(self):
        report = lint_source(
            textwrap.dedent(
                """
                def select_best(candidates, engine):  # detlint: disable=SEM001
                    t = engine.now
                    return max(candidates)
                """
            ),
            module="repro.bgp.decision",
        )
        assert not report.findings
        assert [f.rule_id for f in report.suppressed] == ["SEM001"]


#: One line that trips a det rule (DET001) and a sem rule (SEM003), so a
#: directive's reach across passes is observable.
_TWO_PASS_SOURCE = """
import time


def should_suppress(entry):
    return entry.penalty > 3000.0 and time.time() > 0{directive}
"""


def _two_pass_report(directive: str = ""):
    return lint_source(
        _TWO_PASS_SOURCE.replace("{directive}", directive),
        path="fixture.py",
        module="repro.core.fixture",
    )


def _ids(findings) -> set:
    return {f.rule_id for f in findings}


class TestSuppressionPrefixes:
    def test_generic_lint_prefix_suppresses_any_pass(self):
        report = _two_pass_report("  # lint: disable=DET001,SEM003")
        assert not report.findings
        assert _ids(report.suppressed) == {"DET001", "SEM003"}

    def test_foreign_pass_prefix_is_inert(self):
        # A semlint-scoped directive must not silence a DET finding.
        report = _two_pass_report("  # semlint: disable=DET001")
        assert _ids(report.findings) == {"DET001", "SEM003"}

    def test_pass_disable_all_scopes_to_that_pass_only(self):
        report = _two_pass_report("  # semlint: disable=all")
        assert _ids(report.suppressed) == {"SEM003"}
        # The determinism finding from the other pass survives.
        assert _ids(report.findings) == {"DET001"}

    def test_semlint_prefix_suppresses_sem_finding(self):
        source = """
        def should_suppress(entry):
            return entry.penalty > 3000.0{directive}
        """
        config = make_config(passes=("sem",))
        noisy = lint_source(
            textwrap.dedent(source.replace("{directive}", "")),
            path="fixture.py",
            config=config,
            module="repro.core.fixture",
        )
        assert "SEM003" in _ids(noisy.findings)
        silenced = lint_source(
            textwrap.dedent(
                source.replace("{directive}", "  # semlint: disable=SEM003")
            ),
            path="fixture.py",
            config=config,
            module="repro.core.fixture",
        )
        assert "SEM003" not in _ids(silenced.findings)
        assert "SEM003" in _ids(silenced.suppressed)

    def test_timerlint_prefix_suppresses_tim_finding(self):
        source = """
        def arm(engine, callback):
            engine.schedule(12.5, callback)
        """
        config = make_config(passes=("tim",))
        noisy = lint_source(
            textwrap.dedent(source),
            path="fixture.py",
            config=config,
            module="repro.sample.fixture",
        )
        tim_ids = {f.rule_id for f in noisy.findings if f.rule_id.startswith("TIM")}
        assert tim_ids, "expected a timerlint finding to exercise the prefix"
        target = sorted(tim_ids)[0]
        silenced = lint_source(
            textwrap.dedent(source).replace(
                "engine.schedule(12.5, callback)",
                f"engine.schedule(12.5, callback)  # timerlint: disable={target}",
            ),
            path="fixture.py",
            config=config,
            module="repro.sample.fixture",
        )
        assert target not in _ids(silenced.findings)
        assert target in _ids(silenced.suppressed)


# ----------------------------------------------------------------------
# JSON reporter schema
# ----------------------------------------------------------------------

#: Hand-written schema for the JSON report: field name -> required type.
_REPORT_SCHEMA = {
    "ok": bool,
    "files_checked": int,
    "finding_count": int,
    "counts_by_rule": dict,
    "findings": list,
    "suppressed": list,
    "baselined": list,
    "parse_errors": list,
}

_FINDING_SCHEMA = {
    "rule": str,
    "message": str,
    "path": str,
    "line": int,
    "col": int,
    "end_line": int,
    "severity": str,
    "suppressed": bool,
    "baselined": bool,
}


def _check_schema(payload: dict, schema: dict) -> None:
    assert set(payload) == set(schema), (
        f"field mismatch: {sorted(set(payload) ^ set(schema))}"
    )
    for name, expected_type in schema.items():
        assert isinstance(payload[name], expected_type), (
            f"{name}: expected {expected_type.__name__}, "
            f"got {type(payload[name]).__name__}"
        )


class TestJsonSchema:
    def test_report_and_findings_match_schema(self):
        report = lint_source(
            "import time\n"
            "a = time.time()\n"
            "b = time.time()  # detlint: disable=DET001\n",
            path="mod.py",
        )
        payload = json.loads(render_json(report))
        _check_schema(payload, _REPORT_SCHEMA)
        assert payload["findings"] and payload["suppressed"]
        for row in payload["findings"] + payload["suppressed"]:
            _check_schema(row, _FINDING_SCHEMA)
        assert payload["findings"][0]["end_line"] >= payload["findings"][0]["line"]

    def test_schema_round_trip_preserves_counts(self):
        report = lint_source(
            "import time, random\nt = time.time()\nr = random.random()\n",
            path="mod.py",
        )
        payload = json.loads(render_json(report))
        assert payload["finding_count"] == len(payload["findings"]) == 2
        assert payload["counts_by_rule"] == {"DET001": 1, "DET002": 1}
        # Round-trip: serialising the parsed payload again is stable.
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# baseline record / compare
# ----------------------------------------------------------------------


class TestBaseline:
    def _report(self):
        return lint_source(
            "import time\na = time.time()\nb = time.time()\n", path="mod.py"
        )

    def test_render_and_parse_round_trip(self):
        from repro.lint import parse_baseline, render_baseline

        report = self._report()
        counts = parse_baseline(render_baseline(report))
        assert len(counts) == 1  # same message, same path -> one key
        assert list(counts.values()) == [2]

    def test_apply_baseline_demotes_matches(self):
        from repro.lint import apply_baseline, baseline_counts

        report = self._report()
        filtered = apply_baseline(report, baseline_counts(report.findings))
        assert filtered.ok
        assert not filtered.findings
        assert len(filtered.baselined) == 2
        assert all(f.baselined for f in filtered.baselined)

    def test_extra_occurrences_beyond_count_still_fail(self):
        from repro.lint import apply_baseline

        report = self._report()
        key = report.findings[0].baseline_key
        filtered = apply_baseline(report, {key: 1})
        assert len(filtered.baselined) == 1
        assert len(filtered.findings) == 1
        assert not filtered.ok

    def test_baseline_key_is_line_independent(self):
        early = lint_source("import time\na = time.time()\n", path="mod.py")
        shifted = lint_source(
            "import time\n\n\n\na = time.time()\n", path="mod.py"
        )
        assert (
            early.findings[0].baseline_key == shifted.findings[0].baseline_key
        )
        assert early.findings[0].line != shifted.findings[0].line

    def test_malformed_baseline_rejected(self):
        from repro.lint import parse_baseline

        with pytest.raises(ConfigurationError):
            parse_baseline("not json")
        with pytest.raises(ConfigurationError):
            parse_baseline('{"version": 99, "findings": {}}')
        with pytest.raises(ConfigurationError):
            parse_baseline('{"version": 1, "findings": {"k": -3}}')
