"""Multi-subject visual decoding engine with RSA-guided subject tokens."""

import os

__version__ = "0.1.0"


def thread_cap() -> int:
    """BLAS threads per run: MUSEDEC_THREADS (default 1); a value that is not a positive integer counts as 1."""
    try:
        return max(1, int(os.environ.get("MUSEDEC_THREADS", "1")))
    except ValueError:
        return 1
