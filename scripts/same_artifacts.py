"""Check that two diabrisk source trees write the same artifacts.

    python3 scripts/same_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src/`` directories of two checkouts. The script
makes the seed-1 synthetic tables with this checkout's ``perfbench/synth.py``
and runs the six benchmark commands, ``tune-only --experiment health``,
``train --experiment health --split-first``, an L1 ``train --experiment
health``, a one-tree ``features``, a ``features`` pinned to one CPU,
``tune-only --experiment income`` and a bounded tuned ``train --experiment
income``, with each side's sources, with ``--seed 1`` and one BLAS thread.
Each command reads that side's ``perfbench/configs/*.cfg`` (next to its
``src/``) or one of the configs in ``WRITTEN_CONFIGS``, which the script
writes into its temporary work directory for both sides to read. The split-first one covers the
split-first SMOTE path of the health model and the ``splitfirst_`` file
names. The L1 one covers the proximal Newton final fit on the training
rows' count table in raw units. ``features`` runs its lasso, RFE and tree
fits as jobs of one pool of forked workers wherever two or more CPUs are
available; the one-tree ``features`` has a forest of one tree among those
jobs, and the pinned one (``os.sched_setaffinity`` to one CPU before the
program starts) runs every job in the calling process, so both paths are
compared with the other side. ``tune-only --experiment income`` runs the
default tree grid on a table SMOTE'd whole, with no refit. The bounded one
tunes ``max_depth`` 2 and 4 from ``tree.min_samples_leaf = 20``, with a
``min_samples_split`` of 10,000 that turns some splits of the tree grown
with the grid's smallest value into leaves. Both sides write under the
same ``--out`` path, because ``report.json`` echoes it.
Every file is then compared byte for byte, except ``created_unix_time`` in
each ``*manifest.json``. Each file that differs is printed; for a CSV or JSON
file the line adds the largest absolute difference between numbers in the
same place, and says when other cells or values differ too (text, keys, or
a shape). The exit code is 1 if any file differs, else 0. ``perfbench/`` is
read, never written.

Every command runs in the script's temporary work directory. ``python -c``
puts its working directory ahead of ``PYTHONPATH`` on ``sys.path``, so run
from inside a ``src/`` directory both sides would import that directory's
package. Before any command runs, the script checks that each side imports
``diabrisk`` from under its own ``src``, and exits 1 if not.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYNTH = ROOT / "perfbench" / "synth.py"
SEED = "1"
ENTRY = "import sys; from diabrisk.cli import main; sys.exit(main())"
# run before ENTRY by the commands of ONE_CPU
PIN = "import os; os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); "
WHERE = "import diabrisk; print(diabrisk.__file__)"

# config file name -> text, for configs written into the work directory
WRITTEN_CONFIGS = {
    "l1-raw.cfg": ("logreg.penalty = l1\nlogreg.optimizer = coordinate\n"
                   "logreg.standardize = false\n"),
    "one-tree.cfg": "forest.n_trees = 1\n",
    "income-bounded.cfg": ("tree.min_samples_leaf = 20\n"
                           "grid.tree.max_depth = 2, 4\n"
                           "grid.tree.min_samples_split = 2, 10000\n"),
}

# command name -> (table scale, config file, CLI arguments); a config file
# is one of WRITTEN_CONFIGS or else a side's perfbench/configs/ file
COMMANDS = {
    "eda": (0.16, "survey.cfg", ("eda",)),
    "baseline": (0.16, "survey.cfg", ("baseline",)),
    "train-income": (0.16, "survey.cfg", ("train", "--experiment", "income")),
    "train-health-tuned": (0.10, "health-tuned.cfg",
                           ("train", "--experiment", "health", "--tuned")),
    "train-income-tuned": (0.15, "income-tuned.cfg",
                           ("train", "--experiment", "income", "--tuned",
                            "--split-first")),
    "features": (0.05, "features.cfg", ("features",)),
    "tune-only-health": (0.10, "health-tuned.cfg",
                         ("tune-only", "--experiment", "health")),
    "train-health-split-first": (0.16, "survey.cfg",
                                 ("train", "--experiment", "health",
                                  "--split-first")),
    "train-health-l1": (0.10, "l1-raw.cfg",
                        ("train", "--experiment", "health")),
    "features-one-tree": (0.05, "one-tree.cfg", ("features",)),
    "features-one-cpu": (0.05, "features.cfg", ("features",)),
    "tune-only-income": (0.15, "income-tuned.cfg",
                         ("tune-only", "--experiment", "income")),
    "train-income-tuned-bounded": (0.15, "income-bounded.cfg",
                                   ("train", "--experiment", "income",
                                    "--tuned")),
}
# commands whose process may run on one CPU only
ONE_CPU = {"features-one-cpu"}


def make_inputs(work: Path) -> dict:
    """Write ``WRITTEN_CONFIGS`` and the synthetic tables into ``work``; the
    tables' paths by scale."""
    for name, text in WRITTEN_CONFIGS.items():
        (work / name).write_text(text)
    tables = {}
    for scale in sorted({scale for scale, _, _ in COMMANDS.values()}):
        path = work / f"table_{scale}.csv"
        subprocess.run([sys.executable, str(SYNTH), "--seed", SEED,
                        "--scale", str(scale), "--out", str(path)],
                       check=True, stdout=subprocess.DEVNULL)
        tables[scale] = path
    return tables


def side_env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                PYTHONUTF8="1", PYTHONDONTWRITEBYTECODE="1")


def imports_own_src(src: Path, work: Path) -> bool:
    """Whether a command run in ``work`` with ``src`` on ``PYTHONPATH``
    imports ``diabrisk`` from under ``src``; says why not if it does not."""
    proc = subprocess.run([sys.executable, "-c", WHERE], env=side_env(src),
                          cwd=work, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{src}: cannot import diabrisk\n{proc.stderr}")
        return False
    found = Path(proc.stdout.strip())
    if not found.is_relative_to(src):
        print(f"{src}: diabrisk imports from {found}, not from this src")
        return False
    return True


def run_side(src: Path, tables: dict, out: Path, keep: Path) -> bool:
    """Run every command with the sources at ``src``, in the directory that
    holds ``out``, writing under ``out``, then move ``out`` to ``keep``.
    False if a command failed."""
    env = side_env(src)
    configs = src.parent / "perfbench" / "configs"
    out.mkdir()  # so the move works even when every command fails
    ok = True
    for name, (scale, config, args) in COMMANDS.items():
        config = (out.parent if config in WRITTEN_CONFIGS else configs) / config
        entry = PIN + ENTRY if name in ONE_CPU else ENTRY
        argv = [sys.executable, "-c", entry, *args, "--data", str(tables[scale]),
                "--config", str(config), "--seed", SEED,
                "--out", str(out / name)]
        proc = subprocess.run(argv, env=env, cwd=out.parent,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{src}: {name} exited {proc.returncode}\n{proc.stderr}")
            ok = False
    out.rename(keep)
    return ok


def _is_manifest(path: Path) -> bool:
    return path.name.endswith("manifest.json")  # also splitfirst_manifest.json


def _parsed(path: Path):
    """A JSON file's document, less a manifest's timestamp, or a CSV file's
    rows."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        if _is_manifest(path):
            doc.pop("created_unix_time", None)
        return doc
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def same_file(a: Path, b: Path) -> bool:
    if not _is_manifest(a):
        return a.read_bytes() == b.read_bytes()
    return _parsed(a) == _parsed(b)


def _number(v):
    """v as a float if it is a JSON number or a numeric CSV cell, else None."""
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _walk(a, b, found):
    """Fold the differences between two parsed values into ``found``:
    [largest absolute numeric difference, whether anything else differs]."""
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        found[0] = max(found[0], abs(x - y))
    elif isinstance(a, dict) and isinstance(b, dict):
        found[1] |= a.keys() != b.keys()
        for key in a.keys() & b.keys():
            _walk(a[key], b[key], found)
    elif isinstance(a, list) and isinstance(b, list):
        found[1] |= len(a) != len(b)
        for u, v in zip(a, b):
            _walk(u, v, found)
    else:
        found[1] |= a != b


def describe(a: Path, b: Path) -> str:
    """How a CSV or JSON file present on both sides differs; '' otherwise."""
    if a.suffix not in (".csv", ".json") or not (a.is_file() and b.is_file()):
        return ""
    found = [0.0, False]
    _walk(_parsed(a), _parsed(b), found)
    text = f" (largest numeric difference {found[0]:.3g}"
    return text + ("; other values differ too)" if found[1] else ")")


def differing(old: Path, new: Path) -> list:
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    return [rel for rel in sorted(files)
            if not ((old / rel).is_file() and (new / rel).is_file()
                    and same_file(old / rel, new / rel))]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: same_artifacts.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in args)
    work = Path(tempfile.mkdtemp(prefix="same_artifacts_"))
    try:
        if not all([imports_own_src(old_src, work),
                    imports_own_src(new_src, work)]):
            return 1
        tables = make_inputs(work)
        ok = run_side(old_src, tables, work / "out", work / "old")
        ok = run_side(new_src, tables, work / "out", work / "new") and ok
        diff = differing(work / "old", work / "new")
        for rel in diff:
            print(f"differs: {rel}{describe(work / 'old' / rel, work / 'new' / rel)}")
        n_files = sum(1 for p in (work / "old").rglob("*") if p.is_file())
        print(f"{len(diff)} of {n_files} files differ")
        return 0 if ok and not diff else 1
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
