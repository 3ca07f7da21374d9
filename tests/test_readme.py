"""The README's configuration and library quick start, run as documented, so
that the documented API cannot drift from the code."""

import re
from pathlib import Path

from nlsw import parse_config

README = (Path(__file__).parents[1] / "README.md").read_text()


def block(language, after):
    """The first fenced `language` block of the README after the heading
    `after`."""
    start = README.index(after)
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def test_config_block_parses():
    config = parse_config(block("json", "## CLI"))
    assert (config.problem, config.K, config.J, config.scheme) == \
        ("plane_beta2", 200, 2000, "both")


def test_library_quick_start_runs(capsys):
    exec(block("python", "## Library quick start"), {})
    assert capsys.readouterr().out.startswith("energy drift ")
