"""Performance and robustness suites of the library's own layers.

vm, detect, detect-scale, obs, faults and store; one runner serves
them all (``__main__.py``) and every timed leg uses one method
(``method.py``)::

    PYTHONPATH=src:. python -m benchmarks.suites SUITE [--quick] [--save PATH]
"""
