"""Entry point of the ``seqtag`` console script.

seqtag runs many small matrix products, and OpenBLAS's default of one
thread per core slows them down badly when the host is busy. Unless the
user has set ``OPENBLAS_NUM_THREADS``, the script sets it to 1 before numpy
is first imported (OpenBLAS reads it only then). This module imports no
numpy itself, and importing seqtag as a library leaves the variable alone.
"""

import os


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import entry

    entry()
