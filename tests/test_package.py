import importlib
import pkgutil

import gpgmc


def test_every_name_in_all_exists():
    """Each module's ``__all__`` names only what the module defines, so a
    star import or a documented name never fails after a deletion."""
    modules = [gpgmc] + [importlib.import_module(f"gpgmc.{info.name}")
                         for info in pkgutil.iter_modules(gpgmc.__path__)]
    modules = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(modules) >= 10
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing {missing}"
