"""The ``crbm`` program: ``python -m crbm`` and the installed ``crbm`` script.

Both run ``program``, which keeps OpenSSL out of the process before it hands
over to ``cli.main``. crbm hashes nothing, but ``numpy.random`` imports
``secrets``, whose ``hmac`` imports ``_hashlib`` and with it OpenSSL's
libcrypto: about 3.4 MiB of peak RSS in ``train`` and ``generate``. With
``_hashlib`` marked missing, ``hmac`` and ``hashlib`` run on CPython's
built-in hash modules, the path CPython supports for builds without OpenSSL.
Importing crbm or calling ``cli.main`` has no such effect, so a library
process loads OpenSSL as before.
"""

import sys
from importlib.util import find_spec

from .cli import main

# what hashlib imports in place of OpenSSL; without one of them it logs a
# traceback per algorithm to stderr
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))


def program(argv=None) -> int:
    """``cli.main(argv)`` in a process that loads no OpenSSL, when the
    built-in hash modules can stand in for it."""
    if all(map(find_spec, _BUILTIN_HASHES)):
        sys.modules.setdefault("_hashlib", None)
    return main(argv)


if __name__ == "__main__":
    sys.exit(program())
