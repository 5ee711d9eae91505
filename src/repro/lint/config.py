"""Configuration for a lint run (detlint + semlint + timerlint).

:class:`LintConfig` selects which passes and rules run and tells
path-scoped rules which packages they apply to: DET007's deterministic
core, SEM001's decision-process modules, SEM002's and the TIM rules'
timer substrate, SEM003's parameter module, and SEM007's/TIM004's
damping module. The defaults match this repository's layout; tests
construct narrower configs to exercise individual rules in isolation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.errors import ConfigurationError

#: Packages that must stay free of environment/filesystem access (DET007).
DEFAULT_PROTECTED_PACKAGES: Tuple[str, ...] = (
    "repro.core",
    "repro.sim",
    "repro.bgp",
    # Trace records/tracer sit on the hot path and must stay as
    # deterministic as the protocol code they observe; the sinks and
    # profiler are deliberately excluded (file I/O, wall clock).
    "repro.trace.records",
    "repro.trace.tracer",
)

#: Modules whose functions must be effect-free (SEM001).
DEFAULT_DECISION_MODULES: Tuple[str, ...] = ("repro.bgp.decision",)

#: The timer/engine substrate allowed to do raw event bookkeeping (SEM002).
DEFAULT_TIMER_MODULES: Tuple[str, ...] = ("repro.sim",)

#: Modules in which penalty arithmetic must use named constants (SEM003).
DEFAULT_PENALTY_MODULES: Tuple[str, ...] = ("repro.core", "repro.bgp")

#: The module that *defines* the damping constants — exempt from SEM003.
DEFAULT_PARAMS_MODULES: Tuple[str, ...] = ("repro.core.params",)

#: The module allowed to flip suppression state directly (SEM007).
DEFAULT_DAMPING_MODULES: Tuple[str, ...] = ("repro.core.damping",)

#: Modules allowed to spawn worker processes (DET010): the deterministic
#: sweep executor and the parallel lint runner (which analyses static
#: source text, not simulation state). ``repro.experiments.snapstore``
#: no longer exists, but the benchmark's frozen lint corpus
#: (``perfbench/corpus``) still holds it and pins its findings; drop the
#: entry when that corpus is re-frozen.
DEFAULT_EXECUTOR_MODULES: Tuple[str, ...] = (
    "repro.experiments.parallel",
    "repro.experiments.snapstore",
    "repro.lint.runner",
)

#: Analysis passes by rule-id prefix; ``--pass all`` selects every one.
KNOWN_PASSES: FrozenSet[str] = frozenset({"det", "sem", "tim"})

_PASS_PREFIX = re.compile(r"^[A-Z]+")


def pass_for_rule(rule_id: str) -> str:
    """The analysis pass a rule id belongs to (``SEM003`` -> ``sem``)."""
    match = _PASS_PREFIX.match(rule_id)
    return match.group(0).lower() if match else rule_id[:3].lower()


def _module_in(module: Optional[str], packages: Tuple[str, ...]) -> bool:
    if module is None:
        return False
    return any(
        module == package or module.startswith(package + ".") for package in packages
    )


@dataclass(frozen=True)
class LintConfig:
    """Immutable options shared by every rule in one run.

    Parameters
    ----------
    select:
        If non-empty, only these rule ids run.
    ignore:
        Rule ids excluded from the run (applied after ``select``).
    passes:
        Which analysis passes run: ``det`` (determinism), ``sem``
        (protocol semantics), ``tim`` (timer lifecycle/interaction), or
        any combination. A rule belongs to the pass its id prefix spells
        (``DET005`` -> ``det``, ``SEM003`` -> ``sem``, ``TIM001`` ->
        ``tim``).
    protected_packages:
        Dotted module prefixes in which DET007 forbids environment and
        filesystem access.
    decision_modules:
        Modules whose functions SEM001 requires to be effect-free.
    timer_modules:
        Modules exempt from SEM002 (they *are* the timer substrate).
    penalty_modules:
        Modules in which SEM003 polices magic damping constants.
    params_modules:
        Modules that define the damping constants (SEM003-exempt).
    damping_modules:
        Modules allowed to mutate suppression state directly (SEM007).
    executor_modules:
        Modules allowed to use ``multiprocessing``/``concurrent.futures``
        (DET010) — the deterministic sweep executor and the lint runner.
    """

    select: FrozenSet[str] = frozenset()
    ignore: FrozenSet[str] = frozenset()
    passes: FrozenSet[str] = KNOWN_PASSES
    protected_packages: Tuple[str, ...] = DEFAULT_PROTECTED_PACKAGES
    decision_modules: Tuple[str, ...] = DEFAULT_DECISION_MODULES
    timer_modules: Tuple[str, ...] = DEFAULT_TIMER_MODULES
    penalty_modules: Tuple[str, ...] = DEFAULT_PENALTY_MODULES
    params_modules: Tuple[str, ...] = DEFAULT_PARAMS_MODULES
    damping_modules: Tuple[str, ...] = DEFAULT_DAMPING_MODULES
    executor_modules: Tuple[str, ...] = DEFAULT_EXECUTOR_MODULES

    def validate(self, known_rule_ids: FrozenSet[str]) -> None:
        """Reject rule ids or pass names nothing provides."""
        unknown = (self.select | self.ignore) - known_rule_ids
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule id(s): {', '.join(sorted(unknown))}"
            )
        bad_passes = self.passes - KNOWN_PASSES
        if bad_passes:
            raise ConfigurationError(
                f"unknown lint pass(es): {', '.join(sorted(bad_passes))}"
            )
        if not self.passes:
            raise ConfigurationError("at least one lint pass must be enabled")

    def rule_enabled(self, rule_id: str) -> bool:
        if pass_for_rule(rule_id) not in self.passes:
            return False
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def is_protected_module(self, module: Optional[str]) -> bool:
        """True when ``module`` (dotted name) lies in a protected package."""
        return _module_in(module, self.protected_packages)

    def is_decision_module(self, module: Optional[str]) -> bool:
        return _module_in(module, self.decision_modules)

    def is_timer_module(self, module: Optional[str]) -> bool:
        return _module_in(module, self.timer_modules)

    def is_penalty_module(self, module: Optional[str]) -> bool:
        return _module_in(module, self.penalty_modules) and not _module_in(
            module, self.params_modules
        )

    def is_damping_module(self, module: Optional[str]) -> bool:
        return _module_in(module, self.damping_modules)

    def is_executor_module(self, module: Optional[str]) -> bool:
        return _module_in(module, self.executor_modules)


def make_config(
    select: Tuple[str, ...] = (),
    ignore: Tuple[str, ...] = (),
    passes: Tuple[str, ...] = ("all",),
    protected_packages: Tuple[str, ...] = DEFAULT_PROTECTED_PACKAGES,
) -> LintConfig:
    """Convenience constructor used by the CLI (tuples in, frozensets out).

    ``passes`` accepts the CLI's ``--pass`` vocabulary: ``det``, ``sem``,
    ``tim``, or ``all`` (expanded to every known pass).
    """
    expanded = set()
    for name in passes:
        if name == "all":
            expanded.update(KNOWN_PASSES)
        else:
            expanded.add(name)
    return LintConfig(
        select=frozenset(select),
        ignore=frozenset(ignore),
        passes=frozenset(expanded),
        protected_packages=protected_packages,
    )
