"""``scripts/same_artifacts.py`` compares two artifact trees; its summary
counts the files under either tree. No command is run here."""
import importlib.util

import pytest

from conftest import REPO_ROOT


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "same_artifacts", REPO_ROOT / "scripts" / "same_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


@pytest.mark.parametrize("lacking", ["old", "new"])
def test_summary_counts_files_of_either_side(tmp_path, capsys, lacking):
    files = {
        "same.txt": "kept\n",
        "eda/manifest.json": '{"created_unix_time": 1, "seed": 1}',
        "report.csv": "name,value\nauc,0.5\n",
    }
    changed = dict(files, **{
        "eda/manifest.json": '{"created_unix_time": 2, "seed": 1}',
        "report.csv": "name,value\nauc,0.75\n",
        "eda/extra.json": "{}",
    })
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old, files if lacking == "old" else changed)
    _write(new, changed if lacking == "old" else files)
    assert not _load_script().print_comparison(old, new)
    assert capsys.readouterr().out.splitlines() == [
        "differs: eda/extra.json",
        "differs: report.csv (largest numeric difference 0.25)",
        "2 of 4 files differ",
    ]


def test_same_trees_print_zero(tmp_path, capsys):
    for side in ("old", "new"):
        _write(tmp_path / side, {"a.txt": "a\n", "b/c.json": "[1]"})
    assert _load_script().print_comparison(tmp_path / "old", tmp_path / "new")
    assert capsys.readouterr().out == "0 of 2 files differ\n"
