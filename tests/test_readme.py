"""The README's library tour runs, and prints what its comments say."""

import contextlib
import io
import pathlib
import re

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
