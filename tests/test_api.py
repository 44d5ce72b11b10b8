"""The public API that the package exports and the README documents agree."""

import re
from pathlib import Path

import snspdkit as sk

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_resolves_and_readme_names_are_exported():
    """Every name in ``snspdkit.__all__`` is an attribute of the package, and
    every ``sk.<name>`` the README writes is in ``__all__``."""
    missing = [name for name in sk.__all__ if not hasattr(sk, name)]
    assert missing == []
    documented = set(re.findall(r"(?<![\w.])sk\.([A-Za-z_]\w*)", README.read_text()))
    assert documented, "README names no sk.<name>"
    assert sorted(documented - set(sk.__all__)) == []
