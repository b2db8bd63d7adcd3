"""The import boundary: `import clic` loads no submodule, and a `clic`
command loads only the modules it runs."""

import subprocess
import sys

import pytest

import clic

# The public names in the order the submodules declare them.
ALL = [
    "ClicError", "ParseError", "DuplicateAgentInCoalition",
    "ModelFormatError", "MissingInit", "MissingActions", "UnknownState",
    "UnknownAction", "UnknownAgent", "PartialOutcome", "CoalitionOutOfRange",
    "BoundsTooSmall", "BoundsInsufficientForFormula", "SearchTooLarge",
    "FixtureMissing",
    "Formula", "Atom", "Top", "Bot", "Not", "And", "Or", "Implies", "Iff",
    "Ability", "Inability", "Coalition", "parse_formula", "print_formula",
    "ast_dump", "max_agent", "modal_depth", "propositions_of",
    "enumerate_formulas",
    "ActionProfile", "Bounds", "CoalitionModel", "complement",
    "enumerate_models", "parse_model", "print_model", "profiles",
    "AbilityWitness", "InabilityWitness", "check_ability", "check_inability",
    "extension", "extensions", "satisfies", "verify_ability_witness",
    "verify_inability_witness",
    "PreservationReport", "check_truth_preservation", "is_cl_fragment",
    "translate",
    "Counterexample", "NoCounterexampleWithinBounds", "Verdict",
    "check_equivalence", "default_bounds", "find_countermodel",
    "minimal_countermodel",
    "Fixture", "Law", "LawReport", "LawResult", "catalog", "fixture_model",
    "instantiations", "replay_fixture", "run_laws",
]


def loaded(code: str) -> set[str]:
    """The clic submodules a fresh interpreter holds after running code."""
    report = ("\nimport sys\nprint(*sorted(m for m in sys.modules"
              " if m.startswith('clic.')))")
    proc = subprocess.run([sys.executable, "-c", code + report],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert loaded("import clic") == set()


@pytest.mark.parametrize("probe", ["__test__", "__wrapped__"])
def test_unknown_dunder_loads_nothing(probe):
    assert loaded(f"import clic\nassert not hasattr(clic, {probe!r})") == set()


def test_countermodel_loads_neither_laws_nor_translation():
    got = loaded("from clic.cli import main\n"
                 "assert main(['countermodel', 'I[1] p -> I[1,2] p']) == 1")
    assert "clic.validity" in got
    assert not got & {"clic.laws", "clic.translation"}


def test_translate_loads_translation_but_not_laws():
    got = loaded("from clic.cli import main\n"
                 "assert main(['translate', 'I[1] p']) == 0")
    assert "clic.translation" in got and "clic.laws" not in got


def test_a_name_loads_its_module_and_the_ones_before_it():
    assert loaded("from clic import parse_formula") == {
        "clic.errors", "clic.formula"}


def test_all_keeps_its_order_and_dir_lists_it():
    assert list(clic.__all__) == ALL
    assert set(clic.__all__) <= set(dir(clic))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        clic.nothing


def test_package_declares_no_public_name_of_its_own():
    own = {n for n in vars(clic) if not n.startswith("_")}
    modules = {m for m in own if getattr(clic, m) is sys.modules.get(
        f"clic.{m}")}
    assert own - modules <= set(clic.__all__)
