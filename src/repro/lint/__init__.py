"""Static analysis for the reproduction: detlint + semlint + timerlint.

The paper's headline effects (secondary charging, muffling, the ``Nh``
crossover) are timer-interaction effects, so the reproduction is only
trustworthy if a fixed seed yields bit-identical runs *and* the RFD/BGP
layers honour their semantic contracts. This package turns both
conventions into machine-checked invariants:

* **detlint** (``DET0xx``, :mod:`repro.lint.rules`) — determinism
  hazards: wall-clock reads, global RNG state, unordered iteration,
  float-equality on simulated time, unsorted filesystem listings.
* **semlint** (``SEM0xx``, :mod:`repro.lint.semantics`) — protocol
  semantics: decision-process purity (via the effect-inference engine
  in :mod:`repro.lint.effects`), timer scheduling through the Engine/
  Timer APIs, named penalty constants, monotonic RCN sequence checks,
  metrics-visible RIB mutations.
* **timerlint** (``TIM0xx``, :mod:`repro.lint.timers`) — timer
  lifecycle and timer interaction: an abstract interpreter over timer
  handles (leaks, double-arm, re-arm-after-cancel) plus discipline at
  arming/construction sites (charge-API bypass in callbacks, raw delay
  literals, engine-boundary bypass, race labels, unclamped delays).

All passes share one rule framework (:mod:`repro.lint.framework`), a
driver with construct-scoped pass-prefixed ``# <pass>lint:
disable=...`` / generic ``# lint: disable=...`` suppressions,
``--baseline`` support, an incremental content-digest cache
(:mod:`repro.lint.cache`), and parallel file analysis
(:mod:`repro.lint.runner`); text/JSON reporters live in
:mod:`repro.lint.reporters`.

Run it as ``rfd-repro lint --pass all src/``; the tier-1 suite gates the
whole tree through :func:`lint_paths`. The complementary *runtime*
checks — the engine's schedule-race detector, the converged-state
invariant oracle, and the opt-in timer audit — live in
:mod:`repro.sim.engine`, :mod:`repro.analysis.invariants`, and
:mod:`repro.sim.timers`; see ``docs/STATIC_ANALYSIS.md`` for the full
catalogue.
"""

from repro.lint.baseline import (
    apply_baseline,
    baseline_counts,
    parse_baseline,
    render_baseline,
)
from repro.lint.cache import RULE_SET_VERSION, LintCache
from repro.lint.config import (
    DEFAULT_PROTECTED_PACKAGES,
    LintConfig,
    make_config,
    pass_for_rule,
)
from repro.lint.effects import EffectAnalysis, FunctionEffects, analyze_effects
from repro.lint.findings import Finding, LintReport
from repro.lint.framework import FileContext, Rule, all_rule_ids, iter_rules
from repro.lint.reporters import render_json, render_rule_list, render_text
from repro.lint.rules import RULE_IDS
from repro.lint.runner import lint_paths, lint_source, parse_suppressions
from repro.lint.timers import TimerAnalysis, analyze_timers

__all__ = [
    "DEFAULT_PROTECTED_PACKAGES",
    "EffectAnalysis",
    "FileContext",
    "Finding",
    "FunctionEffects",
    "LintCache",
    "LintConfig",
    "LintReport",
    "RULE_IDS",
    "RULE_SET_VERSION",
    "Rule",
    "TimerAnalysis",
    "all_rule_ids",
    "analyze_effects",
    "analyze_timers",
    "apply_baseline",
    "baseline_counts",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "make_config",
    "parse_baseline",
    "parse_suppressions",
    "pass_for_rule",
    "render_baseline",
    "render_json",
    "render_rule_list",
    "render_text",
]
