"""The README's library tour runs and prints what its comments say, the names and tests it
cites exist, and CI installs the pins of the `test` extra."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import braidsys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_prints_its_commented_values():
    code = _tour()
    # each print in the tour ends with "# <the line it prints>"
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _module_names(text: str) -> list[tuple[str, str]]:
    """Each backticked `module.name` in text whose module is braidsys or one of its modules."""
    modules = {m.name for m in pkgutil.iter_modules(braidsys.__path__)}
    return [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", text)
            if mod in modules or mod == "braidsys"]


def _stale(names) -> list[str]:
    return [f"{mod}.{name}" for mod, name in names
            if not hasattr(braidsys if mod == "braidsys" else importlib.import_module(f"braidsys.{mod}"), name)]


def test_backticked_module_names_resolve():
    # `intlinalg._PRIME_ROOTS` and the like name the code: each such name
    # must still be an attribute of its braidsys module
    names = _module_names(README.read_text(encoding="utf-8"))
    assert len(names) >= 10
    stale = _stale(names)
    assert not stale, f"README names {stale}, which do not exist"


def test_backticked_module_names_in_the_code_and_ci_resolve():
    # the docstrings and comments of the package and the CI workflow name
    # code the same way, and are held to the same check
    root = README.parent
    paths = sorted((root / "src" / "braidsys").glob("*.py")) + [root / ".github" / "workflows" / "ci.yml"]
    names = {path.name: _module_names(path.read_text(encoding="utf-8")) for path in paths}
    assert sum(map(len, names.values())) >= 5
    stale = {path: _stale(found) for path, found in names.items()}
    assert not any(stale.values()), f"these name code that does not exist: {stale}"


def test_the_cost_table_names_tests_that_exist():
    # the "Costs" table names the test that holds each bound; a renamed or
    # deleted test must not leave the table pointing at nothing
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Costs"):text.index("\n## ", text.index("## Costs") + 1)]
    named = re.findall(r"`tests/(\w+\.py)::(\w+)`", section)
    assert len(named) >= 4
    missing = [f"{path}::{name}" for path, name in named
               if not re.search(rf"^def {name}\(", (README.parent / "tests" / path).read_text(encoding="utf-8"), re.M)]
    assert not missing, f"the cost table names {missing}, which do not exist"


def test_ci_installs_the_pins_of_the_test_extra():
    # read with regexes, since the Python 3.10 leg has no tomllib
    root = README.parent
    extra = re.search(r'^test = \[(.*?)\]', (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    pins = re.findall(r'"([^"]+)"', extra.group(1))
    ci = (root / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    installs = re.findall(r"^\s*- run: python -m pip install (.+)$", ci, re.M)
    assert len(pins) >= 2 and len(installs) == 1
    assert sorted(installs[0].split()) == sorted(pins)
