"""Fork-server preload for the service's shard workers.

The fork server imports this module once.  Every shard worker it forks
then starts with the job code and the whole toolchain imported, and the
toolchain digest already computed: a fresh process would re-hash every
``repro`` source file (about 6 ms) before it could key anything.  A
worker serves its shard's jobs until a timeout, a cancel or its death
ends it, so the fork server is asked for a new one only then.
"""

from repro.pipeline.fingerprint import toolchain_fingerprint
from repro.serve import jobs  # noqa: F401  (the workers' entry point)

toolchain_fingerprint()
