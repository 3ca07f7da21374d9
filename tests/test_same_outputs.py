"""tools/same_outputs.py: a tree against itself writes the same bytes and
refusal records, and a copy whose change moves the output is reported with
exit code 1."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMALL = [("small", {"problem": "plane_beta2", "K": 16, "J": 10, "T": 0.5,
                    "scheme": "both"}, ["run"])]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_matches_itself_and_not_a_perturbed_copy(tmp_path, capsys):
    tool = load_tool()
    src = ROOT / "src"
    assert tool.check(src, src, SMALL, tmp_path / "same") == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[-1] for line in lines) == [
        "small/meta.json", "small/process.txt", "small/series_mi.csv",
        "small/series_wang.csv", "small/snapshots_mi.csv", "small/snapshots_wang.csv"]
    assert all(line.startswith("same ") for line in lines)

    # A looser default tolerance ends the sweeps earlier: other levels.
    perturbed = tmp_path / "perturbed"
    shutil.copytree(src, perturbed, ignore=shutil.ignore_patterns("__pycache__"))
    mi = perturbed / "nlsw" / "mi.py"
    text = mi.read_text()
    assert "fp_tol: float = 1e-13" in text
    mi.write_text(text.replace("fp_tol: float = 1e-13", "fp_tol: float = 1e-6"))
    assert tool.check(src, perturbed, SMALL, tmp_path / "differs") == 1
    lines = capsys.readouterr().out.splitlines()
    verdicts = dict(reversed(line.split(maxsplit=1)) for line in lines
                    if not line.startswith(" "))
    assert verdicts["small/series_mi.csv"] == "differs"
    assert verdicts["small/process.txt"] == "differs"
    # Each differing file is followed by its first differing line from
    # each tree: the series' header agrees, a row below it does not.
    at = lines.index("differs      small/series_mi.csv")
    parent, change = lines[at + 1], lines[at + 2]
    assert parent.startswith("    line ") and " parent: '" in parent
    assert change.startswith(parent.split(" parent:")[0] + " change: '")
    assert int(parent.split()[1]) > 1


def test_the_first_differing_line_names_its_number_and_both_texts(tmp_path, capsys):
    tool = load_tool()
    for label, zero, rows in (("a", b"0", b"3,1\r\n"), ("b", b"-0", b"")):
        (tmp_path / label).mkdir()
        (tmp_path / label / "s.csv").write_bytes(
            b"step,x\r\n1,0.10000000000000001\r\n2," + zero + b"\r\n" + rows)
        (tmp_path / label / "t.csv").write_bytes(b"step\r\n1\r\n" + rows)
    verdicts = tool.compare(tmp_path / "a", tmp_path / "b")
    tool.report(tmp_path / "a", tmp_path / "b", verdicts)
    assert capsys.readouterr().out.splitlines() == [
        "differs      s.csv",
        "    line 3 parent: '2,0\\r\\n'",
        "    line 3 change: '2,-0\\r\\n'",
        "differs      t.csv",
        "    line 3 parent: '3,1\\r\\n'",
        "    line 3 change: (no such line)"]
    assert tool.first_difference(b"x\ny\n", b"x\ny\n") is None


def test_a_refusal_reads_the_same_on_its_own_tree(tmp_path, capsys):
    # A directory where meta.json goes is refused before the run, with a
    # record that names the path relative to the case's own directory.
    tool = load_tool()
    src = ROOT / "src"
    refused = [("refused", SMALL[0][1], ["run"], "meta.json")]
    assert tool.check(src, src, refused, tmp_path) == 0
    assert capsys.readouterr().out.splitlines() == ["same         refused/process.txt"]
    process = (tmp_path / "change" / "outputs" / "refused" / "process.txt").read_text()
    assert process.startswith("exit 2\n")
    assert "Is a directory: 'meta.json'" in process


def test_meta_is_compared_without_its_varying_fields(tmp_path):
    tool = load_tool()
    for label, wall, out in (("a", 1.0, "/x"), ("b", 2.0, "/y")):
        (tmp_path / label).mkdir()
        (tmp_path / label / "meta.json").write_text(
            f'{{"wall_time_seconds": {wall}, "timings": {{"mi": {{"run_s": {wall}}}}}, '
            f'"config": {{"output_dir": "{out}", "K": 8}}}}')
    assert tool.compare(tmp_path / "a", tmp_path / "b") == [("same", Path("meta.json"))]
    (tmp_path / "b" / "meta.json").write_text('{"config": {"K": 9}}')
    assert tool.compare(tmp_path / "a", tmp_path / "b") == [
        ("differs", Path("meta.json"))]
