"""The README's library tour runs, and prints what its comments say."""

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


def test_backticked_module_names_resolve():
    # `intlinalg._PRIME_ROOTS` and the like name the code: each such name
    # must still be an attribute of its braidsys module
    text = README.read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(braidsys.__path__)}
    names = [(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", text)
             if mod in modules or mod == "braidsys"]
    assert len(names) >= 10
    for mod, name in names:
        target = braidsys if mod == "braidsys" else importlib.import_module(f"braidsys.{mod}")
        assert hasattr(target, name), f"README names `{mod}.{name}`, which does not exist"
