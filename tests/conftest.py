"""Every run of the tests loads every module of the package first.

Hypothesis mixes the literal constants of the loaded modules outside the
tests, site-packages and the standard library into its draws, derandomized
ones too. A run of one test file loads fewer modules of the package than the
whole suite does (``crbm.cli``, ``crbm.exact`` and ``crbm.__main__`` are not
imported by every file), so a derandomized property test drew other examples
alone than in the suite. Loading them all here makes the draws of a test the
same however many of the files run.
"""

import importlib
import pkgutil

import crbm

for info in pkgutil.iter_modules(crbm.__path__):
    importlib.import_module(f"crbm.{info.name}")
