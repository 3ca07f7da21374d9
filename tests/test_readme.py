"""The README's configuration, library quick start, exit codes and sizes,
checked against the code as documented, so that the documented API cannot
drift from the code."""

import re
from pathlib import Path

from nlsw import cli, errors, mi, parse_config

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


def test_exit_code_sentence_matches_error_classes():
    # Each `code` of the sentence names its classes up to the next ';'.
    start = README.index("Exit codes, each")
    sentence = README[start:README.index("\n\n", start)]
    documented = {name: int(code)
                  for code, text in re.findall(r"`(\d)` ([^;]*)", sentence)
                  for name in re.findall(r"`(\w+Error)`", text)}
    assert documented == {name: cls.exit_code for name, cls in vars(errors).items()
                          if isinstance(cls, type) and issubclass(cls, errors.NlswError)
                          and cls is not errors.NlswError}


def test_documented_sizes_match_constants():
    # Each figure as the README writes it, against the constant it names.
    def figure(pattern):
        return int(re.search(pattern, README).group(1).replace(",", ""))

    assert figure(r"`mi\.PLAN_BYTES_PER_NODE` = (\d+)") == mi.PLAN_BYTES_PER_NODE
    assert figure(r"`mi\.WORK_BYTES_PER_NODE` =\s+(\d+)") == mi.WORK_BYTES_PER_NODE
    assert figure(r"`cli\.PIECE_ROWS`\s+\(([\d,]+)\)") == cli.PIECE_ROWS
    assert figure(r"`B = max\(1, (\d+) // K\)`") == mi.BLOCK_VALUES
    assert figure(r"`mi\.MEMORY_CAP_BYTES`\s+\((\d+) GiB\)") * 2 ** 30 == \
        mi.MEMORY_CAP_BYTES
