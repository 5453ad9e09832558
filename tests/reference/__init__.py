"""Reference implementations the engine is held to, bit for bit.

:mod:`tests.reference.iterators` is the row interpreter: every physical
operator as a generator over rows, which :func:`tests.oracle.row_path`
runs in place of the batch executor.
"""
