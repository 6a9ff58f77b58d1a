"""Fork-server preload for service job children.

The fork server imports this module once.  Every job child it forks
then inherits the job code with the whole toolchain imported, and the
toolchain digest already computed: a fresh process would re-hash every
``repro`` source file (about 6 ms) before it could key anything.
"""

from repro.pipeline.fingerprint import toolchain_fingerprint
from repro.serve import jobs  # noqa: F401  (the children's entry point)

toolchain_fingerprint()
