"""tools/code_lines.py: every line of a module is of one kind, and the four
counts add up to its line count."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment makes no comment line

# A comment line.
TEXT = """a string that is not a docstring,

over three lines"""


class Box:
    """One line."""

    def area(self, side):
        """Two lines,

        with a blank one inside."""
        # Squared.
        return (side
                * side)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_four_counts_add_up_to_the_line_count(tmp_path, capsys):
    tool = load_tool()
    counts = tool.count(FIXTURE)
    assert counts == {"code": 8, "docstring": 6, "comment": 2, "blank": 5}
    assert sum(counts.values()) == len(FIXTURE.splitlines()) == 21
    module = tmp_path / "fixture.py"
    module.write_text(FIXTURE)
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", *tool.KINDS]
    assert rows[1] == [str(module), "8", "6", "2", "5"]
    assert rows[2] == ["total", "8", "6", "2", "5"]
