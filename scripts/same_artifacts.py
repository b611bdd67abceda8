"""Check that two diabrisk source trees write the same artifacts.

    python3 scripts/same_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src/`` directories of two checkouts. The script
makes the seed-1 synthetic tables with this checkout's ``perfbench/synth.py``
and runs the six benchmark commands, ``tune-only --experiment health`` and
``train --experiment health --split-first`` with each side's sources and
that side's ``perfbench/configs/*.cfg`` (next to its ``src/``), with
``--seed 1`` and one BLAS thread. The last one covers the split-first SMOTE
path of the health model and the ``splitfirst_`` file names. Both sides
write under the same ``--out`` path, because ``report.json`` echoes it.
Every file is then compared byte for byte, except ``created_unix_time`` in
each ``*manifest.json``. Each file that differs is printed; the exit code is
1 if any does, else 0. ``perfbench/`` is read, never written.
"""
from __future__ import annotations

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

# command name -> (table scale, config file, CLI arguments)
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
}


def make_tables(work: Path) -> dict:
    tables = {}
    for scale in sorted({scale for scale, _, _ in COMMANDS.values()}):
        path = work / f"table_{scale}.csv"
        subprocess.run([sys.executable, str(SYNTH), "--seed", SEED,
                        "--scale", str(scale), "--out", str(path)],
                       check=True, stdout=subprocess.DEVNULL)
        tables[scale] = path
    return tables


def run_side(src: Path, tables: dict, out: Path, keep: Path) -> bool:
    """Run every command with the sources at ``src``, writing under ``out``,
    then move ``out`` to ``keep``. False if a command failed."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONUTF8="1", PYTHONDONTWRITEBYTECODE="1")
    configs = src.parent / "perfbench" / "configs"
    out.mkdir()  # so the move works even when every command fails
    ok = True
    for name, (scale, config, args) in COMMANDS.items():
        argv = [sys.executable, "-c", ENTRY, *args, "--data", str(tables[scale]),
                "--config", str(configs / config), "--seed", SEED,
                "--out", str(out / name)]
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{src}: {name} exited {proc.returncode}\n{proc.stderr}")
            ok = False
    out.rename(keep)
    return ok


def same_file(a: Path, b: Path) -> bool:
    if not a.name.endswith("manifest.json"):  # also splitfirst_manifest.json
        return a.read_bytes() == b.read_bytes()
    docs = [json.loads(p.read_text()) for p in (a, b)]
    for doc in docs:
        doc.pop("created_unix_time", None)
    return docs[0] == docs[1]


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
        tables = make_tables(work)
        ok = run_side(old_src, tables, work / "out", work / "old")
        ok = run_side(new_src, tables, work / "out", work / "new") and ok
        diff = differing(work / "old", work / "new")
        for rel in diff:
            print(f"differs: {rel}")
        n_files = sum(1 for p in (work / "old").rglob("*") if p.is_file())
        print(f"{len(diff)} of {n_files} files differ")
        return 0 if ok and not diff else 1
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    sys.exit(main())
