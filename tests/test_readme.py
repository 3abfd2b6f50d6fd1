"""The library example in README.md runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first fenced python block under the `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    divergence, query = capsys.readouterr().out.split()
    assert 0 < float(divergence) < 2
    assert query == "1/2"
