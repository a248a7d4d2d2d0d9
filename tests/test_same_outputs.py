"""The output-equivalence script `tools/same_outputs.py`."""

import json
import runpy
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
same = runpy.run_path(str(ROOT / "tools" / "same_outputs.py"))


def test_smoke_outputs_match_themselves_and_a_perturbed_cell_is_named(tmp_path):
    # the working tree against itself: every output byte-identical
    assert same["main"]([str(ROOT), "--smoke", "--keep", str(tmp_path)]) == 0
    this, other = tmp_path / "this", tmp_path / "other"
    assert {p.name for p in (this / "converge_smoke").iterdir()} >= {
        "convergence.csv", "report.json", "plot.gp", "stdout.txt",
        "stderr.txt", "exit.txt"}
    assert same["compare"](this, other) == []
    # one cell of one CSV column moved by 1e-12 relative
    path = other / "converge_smoke" / "convergence.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-12))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    report = same["compare"](this, other)
    assert report[0] == "differs: converge_smoke/convergence.csv (this, then other)"
    assert len(report) == 2 and report[1].startswith(
        "  column sup_sigma1_w: max abs ")
    rel = float(report[1].rsplit("max rel ", 1)[1])
    assert 0.9e-12 < rel < 1.1e-12


def test_a_moved_key_of_a_json_stdout_line_is_named(tmp_path):
    # a stdout of two JSON lines, as the dense_cadence run prints: one key
    # of the second line moved by 1e-12 relative is named with its line
    docs = [{"order": 0.5, "sup": [1.0e-3, 2.0e-3]},
            {"order": 0.25, "sup": [3.0e-3, 4.0e-3]}]
    for side in ("this", "other"):
        (tmp_path / side / "run").mkdir(parents=True)
        (tmp_path / side / "run" / "stdout.txt").write_text(
            "".join(json.dumps(doc) + "\n" for doc in docs))
        docs[1]["sup"][1] *= 1.0 + 1e-12
    report = same["compare"](tmp_path / "this", tmp_path / "other")
    assert report[0] == "differs: run/stdout.txt (this, then other)"
    assert len(report) == 2 and report[1].startswith(
        "  line 2 key sup[*]: max abs ")
    rel = float(report[1].rsplit("max rel ", 1)[1])
    assert 0.9e-12 < rel < 1.1e-12


def test_an_argument_holding_braces_runs_unchanged(tmp_path):
    # only the {tree} placeholder is substituted: code with a dict literal
    # and a format field runs as written, and {tree} becomes the tree
    code = "import sys; print({1: 2}, '{0}'.format(3), sys.argv[1])"
    same["run"](ROOT, "braces", [sys.executable, "-c", code, "{tree}/x"],
                tmp_path)
    out = tmp_path / "braces"
    assert (out / "exit.txt").read_text() == "0\n"
    assert (out / "stdout.txt").read_text() == "{1: 2} 3 <tree>/x\n"


def test_every_cli_report_is_strict_json(tmp_path):
    # RFC 8259 has no NaN or Infinity: an undefined fitted order (one ε, or
    # a leakage or crossing measure of 0) is written as null
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    runs = [(label, argv) for label, argv in same["command_list"](False)
            if argv[2:3] == ["adiapack.cli"]]
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda run: same["run"](ROOT, *run, tmp_path), runs))
    for label, _ in runs:
        assert (tmp_path / label / "exit.txt").read_text() == "0\n", label
        json.loads((tmp_path / label / "report.json").read_text(),
                   parse_constant=refuse)
