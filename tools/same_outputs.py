"""Compare this checkout's outputs with another revision's, byte for byte.

    python3 tools/same_outputs.py <rev> [--smoke] [--keep <dir>]

<rev> is a git revision of this repository, exported with `git archive`
into a temporary directory, or the path of another checkout.  Both trees run
one fixed command list, each with its own `src/` on PYTHONPATH:

- `adiapack decompose` and `identities` on every shipped config;
- `converge` on smoke, and on scalar_harmonic and rotating at ε = 1/64, 1/128;
- `converge` on rotating with its full ε list, 1/64 to 1/512, whose lanes
  take three distinct dt, down to ε/4 (label `converge_rotating_full`);
- `superpose` on superposition at ε = 1/32, 1/64 and on crossing_control at
  ε = 1/64;
- `superpose` on superposition with its full ε list, whose lanes take two
  distinct dt, 1e-3 and 0.01/11, without corrections (label
  `superpose_superposition_full`);
- `superpose` on crossing_control with its full ε list, 1/64 to 1/256: two
  packets on two distinct envelope clocks over lanes of dt 1e-3 and
  0.01/11, and the one run whose Γ = 0 control fits a `crossing_order`
  (label `superpose_crossing_control_full`);
- `single` on smoke and on constant_direction;
- every script in `demos/`;
- `dense_cadence`: the `to_dict()` of `convergence_study` on rotating at
  ε = 1/64, 1/256 and of `superposition_experiment` on superposition at
  ε = 1/32, 1/256, both at T = 0.3 and observe_every = 0.003, whose clock
  intervals of 0.009 end in a short one and whose lanes take two distinct
  dt;
- `expressions`: the bytes of the array form's values, nu = 0, 1 and 2 on
  11 points, of 2000 seeded random trees over the test grammar and of every
  shipped entry (it reads only `parse_expr`, so any revision runs it);
- the acceptance suite, of which the `[PASS]`/`[FAIL]` lines are kept.

`--smoke` runs only decompose, identities, converge and single on smoke.
Every file a command writes (CSVs, `report.json`, snapshots, `plot.gp`),
its stdout and stderr (with each tree's own path replaced by `<tree>`) and
its exit code are compared byte for byte.  Where a file differs, the report
gives the largest absolute and relative difference of each CSV column and
each JSON key (list indices read as `[*]`), or the first differing line of
any other text; a text line that parses as JSON on both sides (the
`dense_cadence` stdout) is compared key by key and named by its number.
The summary also gives the line count of `src/` (its `.py` files, as
`wc -l` counts) in both trees.  Exit status: 0 when every output
is identical, 1 when any differs, 2 when the revision cannot be exported.
There is no tolerance.
`--keep <dir>` keeps the outputs in <dir>/this and <dir>/other.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("constant_direction", "crossing_control", "rotating",
           "scalar_harmonic", "smoke", "superposition")
# the array form's bytes (or the derivative's error text) of every tree
EXPRESSIONS = r"""
import json, random
import numpy as np
from adiapack.expressions import parse_expr


def tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", "pi", "e", "2", "0.5", "3", "1.25e-2"])
    kind = rng.randrange(3)
    if kind == 0:
        left, op = tree(rng, depth - 1), rng.choice("+-*/^")
        return "(" + left + ")" + op + "(" + tree(rng, depth - 1) + ")"
    if kind == 1:
        fn = rng.choice(["sin", "cos", "tan", "tanh", "exp", "sqrt", "abs", "jb"])
        return fn + "(" + tree(rng, depth - 1) + ")"
    return "-(" + tree(rng, depth - 1) + ")"


rng = random.Random(23)
texts = [tree(rng, 5) for _ in range(2000)]
for name in %r:
    with open("configs/" + name + ".json", encoding="utf-8") as f:
        potential = json.load(f)["potential"]
    texts += potential["diag"] + potential["sym"]
x = np.linspace(-2.3, 2.7, 11)
with np.errstate(all="ignore"):
    for text in texts:
        e = parse_expr(text)
        for nu in (0, 1, 2):
            try:
                value = e(x, nu).tobytes().hex()
            except ValueError as exc:
                value = str(exc)
            print(nu, text, value)
""" % (CONFIGS,)
# the reports of two ε-sweeps at a dense cadence, one JSON line each
DENSE_CADENCE = r"""
import json
from dataclasses import replace
from adiapack.config import load_config
from adiapack.experiments import convergence_study, superposition_experiment

for name, sweep, epsilons in (
        ("rotating", convergence_study, [1 / 64, 1 / 256]),
        ("superposition", superposition_experiment, [1 / 32, 1 / 256])):
    cfg = load_config("configs/" + name + ".json")
    study = replace(cfg, T=0.3, epsilons=epsilons, snapshot_times=None,
                    options=replace(cfg.options, observe_every=0.003))
    print(json.dumps(sweep(study).to_dict(), sort_keys=True))
"""


def _cli(command, config, epsilons=None, label=None):
    label = label or f"{command}_{config}"
    args = [command, "--config", f"configs/{config}.json"]
    if epsilons:
        args += ["--epsilon-override", epsilons]
    return label, [sys.executable, "-m", "adiapack.cli", *args]


def command_list(smoke: bool) -> list:
    """(label, argv) of every run; a label is also its output directory."""
    if smoke:
        return [_cli(c, "smoke") for c in ("decompose", "identities",
                                            "converge", "single")]
    runs = [_cli(c, cfg) for cfg in CONFIGS for c in ("decompose", "identities")]
    runs += [_cli("converge", "smoke"),
             _cli("converge", "scalar_harmonic", "0.015625,0.0078125"),
             _cli("converge", "rotating", "0.015625,0.0078125"),
             _cli("converge", "rotating", label="converge_rotating_full"),
             _cli("superpose", "superposition", "0.03125,0.015625"),
             _cli("superpose", "crossing_control", "0.015625"),
             _cli("superpose", "superposition",
                  label="superpose_superposition_full"),
             _cli("superpose", "crossing_control",
                  label="superpose_crossing_control_full"),
             _cli("single", "smoke"), _cli("single", "constant_direction")]
    runs += [(f"demo_{path.stem}", [sys.executable, f"{{tree}}/demos/{path.name}"])
             for path in sorted((ROOT / "demos").glob("*.py"))]
    runs.append(("expressions", [sys.executable, "-c", EXPRESSIONS]))
    runs.append(("dense_cadence", [sys.executable, "-c", DENSE_CADENCE]))
    runs.append(("acceptance", [sys.executable, "-m", "pytest", "-q", "-s",
                                "-p", "no:cacheprovider",
                                "tests/test_acceptance.py"]))
    return runs


def run(tree: Path, label: str, argv: list, out: Path):
    """Run one command of the list in `tree`, its outputs into out/label."""
    where = out / label
    where.mkdir(parents=True)
    argv = [a.replace("{tree}", str(tree)) for a in argv]
    if argv[2:3] == ["adiapack.cli"]:
        argv += ["--out", str(where)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONIOENCODING="utf-8")
    # a demo runs where it may write files; the rest from the tree's root
    cwd = where if label.startswith("demo_") else tree
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          encoding="utf-8", errors="replace")
    stdout, stderr = (s.replace(str(tree), "<tree>").replace(str(where), "<out>")
                      for s in (proc.stdout, proc.stderr))
    if label == "acceptance":   # the PASS lines only, not pytest's timing
        stdout = "".join(line + "\n" for line in stdout.splitlines()
                         if line.startswith(("[PASS]", "[FAIL]")))
        stderr = ""
    (where / "stdout.txt").write_text(stdout, encoding="utf-8")
    (where / "stderr.txt").write_text(stderr, encoding="utf-8")
    (where / "exit.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _worst(pairs):
    """The largest absolute and relative difference over numeric pairs;
    None when a pair is not numeric and differs."""
    big_abs = big_rel = 0.0
    for a, b in pairs:
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None or math.isnan(x - y):
            return None
        d = abs(x - y)
        big_abs = max(big_abs, d)
        big_rel = max(big_rel, d / max(abs(x), abs(y)) if d else 0.0)
    return big_abs, big_rel


def _report(name, pairs_by_key) -> list:
    lines = []
    for key, pairs in pairs_by_key.items():
        if all(a == b for a, b in pairs):
            continue
        worst = _worst(pairs)
        lines.append(f"  {name} {key}: text differs" if worst is None else
                     f"  {name} {key}: max abs {worst[0]:.3g}, "
                     f"max rel {worst[1]:.3g}")
    return lines


def _csv_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0] if rows else []), rows[1:]


def _diff_csv(a: str, b: str) -> list:
    head_a, rows_a = _csv_columns(a)
    head_b, rows_b = _csv_columns(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"  header or row count: {head_a} {len(rows_a)} rows, "
                f"{head_b} {len(rows_b)} rows"]
    columns = {}
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return ["  a row has a different number of cells"]
        for k, (x, y) in enumerate(zip(ra, rb)):
            name = head_a[k] if k < len(head_a) else f"#{k}"
            columns.setdefault(name, []).append((x, y))
    return _report("column", columns)


def _leaves(value, at=""):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{at}.{k}" if at else str(k))
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v, at + "[*]")
    else:
        yield at, value


def _parsed(text):   # (True, its JSON value), or (False, None)
    try:
        return True, json.loads(text)
    except ValueError:
        return False, None


def _diff_leaves(a, b, at: str = "") -> list:
    """Two JSON values key by key; `at` goes before each key."""
    la, lb = list(_leaves(a)), list(_leaves(b))
    if [k for k, _ in la] != [k for k, _ in lb]:
        return [f"  {at}the JSON documents have different keys"]
    keys = {}
    for (k, x), (_, y) in zip(la, lb):
        keys.setdefault(k or "(root)", []).append((json.dumps(x), json.dumps(y)))
    return _report(f"{at}key", keys)


def _diff_json(a: str, b: str) -> list:
    (ok_a, va), (ok_b, vb) = _parsed(a), _parsed(b)
    return _diff_leaves(va, vb) if ok_a and ok_b else _diff_text(a, b)


def _diff_text(a: str, b: str) -> list:
    """Line by line: a differing line that parses as JSON on both sides is
    compared key by key under its line number; the first other differing
    line ends the report."""
    la, lb, lines = a.splitlines(), b.splitlines(), []
    for i, (x, y) in enumerate(zip(la, lb)):
        if x == y:
            continue
        (ok_x, vx), (ok_y, vy) = _parsed(x), _parsed(y)
        if not (ok_x and ok_y):
            return lines + [f"  line {i + 1}: {x!r}", f"  against: {y!r}"]
        lines += _diff_leaves(vx, vy, f"line {i + 1} ")
    if len(la) != len(lb) or not lines:
        lines.append(f"  {len(la)} lines against {len(lb)}")
    return lines


def compare(this: Path, other: Path) -> list:
    """The report of every output that differs between two output trees
    (each `run`'s directories); empty when all are byte-identical."""
    files = {p.relative_to(this) for p in this.rglob("*") if p.is_file()}
    files_other = {p.relative_to(other) for p in other.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files ^ files_other):
        lines.append(f"only in {'this' if rel in files else 'other'}: {rel}")
    for rel in sorted(files & files_other):
        a, b = (this / rel).read_bytes(), (other / rel).read_bytes()
        if a == b:
            continue
        ta, tb = a.decode("utf-8", "replace"), b.decode("utf-8", "replace")
        diff = {".csv": _diff_csv, ".json": _diff_json}.get(rel.suffix, _diff_text)
        lines += [f"differs: {rel} (this, then other)"] + diff(ta, tb)
    return lines


def src_lines(tree: Path) -> int:
    """The newlines in the `.py` files under the tree's `src/`."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src").rglob("*.py"))


def _export(rev: str, where: Path) -> Path:
    """`rev` as a directory: the path of a checkout, or `git archive` of a
    revision of this repository unpacked under `where`."""
    if Path(rev).is_dir():
        return Path(rev).resolve()
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode:
        print(f"same_outputs: cannot export {rev}: "
              f"{proc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
        raise SystemExit(2)
    tree = where / "tree"
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="a git revision, or the path of a checkout")
    parser.add_argument("--smoke", action="store_true",
                        help="only the smoke config's four commands")
    parser.add_argument("--keep", type=Path, default=None,
                        help="keep the outputs in <dir>/this and <dir>/other")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        base = args.keep or Path(tmp)
        other_tree = _export(args.rev, Path(tmp))
        runs = command_list(args.smoke)
        jobs = [(tree, label, cmd, base / side) for side, tree in
                (("this", ROOT), ("other", other_tree)) for label, cmd in runs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda job: run(*job), jobs))
        lines = compare(base / "this", base / "other")
        sizes = src_lines(ROOT), src_lines(other_tree)
    for line in lines:
        print(line)
    verdict = "differ" if lines else "are identical"
    print(f"same_outputs: the outputs of {len(runs)} runs here and at "
          f"{args.rev} {verdict}; src/ has {sizes[0]} lines here and "
          f"{sizes[1]} there")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
