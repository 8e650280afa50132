"""Fixed-seed benchmark of the offline paper pipeline and the online service.

``perfbench/run.py`` is the entry point; this package holds its parts:

``stats``
    Order statistics (nearest-rank percentiles and the sample-count rule).
``layers``
    Timing wrappers installed around the program's public layer
    functions from outside, plus readers of the metrics the program
    already exports.
``offline``
    The offline-paper workload (one fresh process per pipeline).
``serving``
    The serve-light and serve-peak workloads, their batch oracle and
    the open-loop latency join.
``env``
    Paths inside the checkout and the host fingerprint.
"""
