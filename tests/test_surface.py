"""The public surface: every name in perturblab.__all__, and every public
method or property of an exported class, is reached from somewhere other
than its own unit tests.

A name counts as reached when it appears as a whole word in a module of the
package (other than on its own def or class line; __init__.py only
re-exports and does not count), in the acceptance gate
tests/test_acceptance.py, or in README.md.  Submodules and __version__ are
exempt.  An export or member that nothing reaches belongs out of the
package."""

import re
import types
from pathlib import Path

import perturblab

PACKAGE = Path(perturblab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _reaching_lines() -> list[str]:
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += [ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]
    return [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]


def _unreached(names, lines) -> list[str]:
    out = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_def = re.compile(rf"^\s*(?:async\s+)?(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own_def.match(line) for line in lines):
            out.append(name)
    return out


def test_every_export_is_reached_outside_its_own_tests():
    names = [name for name in perturblab.__all__
             if name != "__version__" and not isinstance(getattr(perturblab, name), types.ModuleType)]
    unreached = _unreached(names, _reaching_lines())
    assert not unreached, f"exports reached only by their own tests: {', '.join(unreached)}"


def _members(cls) -> list[str]:
    """The public methods and properties that cls defines itself (not its
    fields, nor what it inherits)."""
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    return [name for name, value in vars(cls).items() if not name.startswith("_") and isinstance(value, kinds)]


def test_every_member_of_an_exported_class_is_reached_outside_its_own_tests():
    classes = [value for value in (getattr(perturblab, name) for name in perturblab.__all__)
               if isinstance(value, type)]
    members = [(cls.__name__, name) for cls in classes for name in _members(cls)]
    unreached = set(_unreached({name for _, name in members}, _reaching_lines()))
    flagged = [f"{owner}.{name}" for owner, name in members if name in unreached]
    assert not flagged, f"members reached only by their own tests: {', '.join(flagged)}"


def test_members_are_the_public_methods_and_properties_a_class_defines():
    class Base:
        def inherited(self): ...

    class Probe(Base):
        field: int = 0

        def method(self): ...

        @property
        def prop(self): ...

        @classmethod
        def build(cls): ...

        def _private(self): ...

    assert _members(Probe) == ["method", "prop", "build"]


def test_a_name_on_its_own_def_line_only_is_unreached():
    lines = ["def lonely(x):", "    return x", "class Alone:", "lonely_twin = 1"]
    assert _unreached(["lonely", "Alone"], lines) == ["lonely", "Alone"]
    assert _unreached(["lonely", "Alone"], lines + ["y = lonely(Alone())"]) == []


def test_the_retired_estimators_put_back_would_be_unreached():
    # no module, acceptance test or README line still names them, so
    # re-adding one without a caller fails the rule above
    retired = ["check_nondegeneracy", "NondegeneracyReport", "small_image_event", "SmallImageReport",
               "round_witness", "embed_zero_padded", "symmetric_discretization", "sample_vector"]
    lines = _reaching_lines()
    assert _unreached(retired, lines + [f"def {name}():" for name in retired]) == retired
