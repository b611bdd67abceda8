"""The benchmark's tracer wraps program functions by module attribute
(``perfbench/tracer.py`` ``WRAPPED``). A site that no longer resolves only
prints a line on stderr there and its per-layer spans go missing, so the
sites are checked here."""
import importlib
import importlib.util

import pytest

from conftest import REPO_ROOT


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [
    (site, name.split(".", 1)[1])
    for name, (sites, _) in _load_tracer().WRAPPED.items()
    for site in sites
]


@pytest.mark.parametrize("site, attr", SITES,
                         ids=[f"{site}.{attr}" for site, attr in SITES])
def test_wrapped_site_resolves(site, attr):
    module = importlib.import_module(f"diabrisk.{site}")
    assert callable(getattr(module, attr, None)), f"diabrisk.{site}.{attr}"
