"""Corpus-wide lint gate: every library element must verify and lint
with zero error-severity diagnostics (the repo-level acceptance bar for
the offload linter), and so must every program a quick training run
synthesizes."""

import pytest

from repro.click.elements import ELEMENT_BUILDERS, all_elements, build_element
from repro.click.frontend import lower_element
from repro.core.artifacts import TrainConfig
from repro.core.prepare import prepare_element
from repro.nfir import verify_module
from repro.nfir.analysis import lint_module
from repro.synthesis.generator import ClickGen, baseline_stats
from repro.synthesis.stats import extract_stats


@pytest.mark.parametrize("name", sorted(ELEMENT_BUILDERS))
def test_element_verifies_and_lints_error_free(name):
    prepared = prepare_element(build_element(name))
    verify_module(prepared.module)
    report = lint_module(prepared.module)
    errors = report.by_severity("error")
    assert not errors, "\n".join(d.render() for d in errors)


def test_corpus_known_hazards_are_surfaced():
    """The linter is not vacuous on the corpus: the stateful counter
    elements carry CL007 race-candidate warnings."""
    prepared = prepare_element(build_element("aggcounter"))
    report = lint_module(prepared.module)
    assert any(d.rule == "CL007" for d in report.diagnostics)


def verify_and_lint(element) -> None:
    """Lower, verify and lint one synthesized element: a verifier
    failure raises, and an error-severity lint finding fails."""
    module = lower_element(element)
    verify_module(module)
    errors = lint_module(module).by_severity("error")
    findings = "; ".join(d.render() for d in errors)
    assert not errors, f"synthesized element {element.name} fails offload lint: {findings}"


class TestSynthesizedPrograms:
    def test_generated_elements_verify_and_lint(self):
        for element in ClickGen(baseline_stats(), seed=11).elements(10):
            verify_and_lint(element)

    def test_quick_training_programs_verify_and_lint(self):
        """Every program a ``TrainConfig.quick()`` run synthesizes at
        seed 0, so a generator or analysis regression (a fixpoint that
        never settles included) fails here instead of in training: the
        predictor set's programs, whose first child seeds the scale-out
        set reuses, and the algorithm corpus's negatives."""
        config = TrainConfig.quick()
        stats = extract_stats(all_elements())
        n_programs = max(config.n_predictor_programs, config.n_scaleout_programs)
        programs = [
            ClickGen.for_program(stats, seed=0, index=i).element(f"synth_{i}")
            for i in range(n_programs)
        ]
        negatives = ClickGen(stats, seed=0).elements(config.n_negatives, prefix="neg")
        for element in programs + negatives:
            verify_and_lint(element)
