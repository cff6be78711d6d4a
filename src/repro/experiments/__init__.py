"""Experiment drivers: one module per table/figure of the evaluation.

Every driver is a plain function returning an
:class:`~repro.experiments.common.ExperimentResult` with ``rows()`` (list
of dicts) and ``print_table()``.  :mod:`repro.experiments.runner` names
each experiment and its full and quick sizes; :mod:`repro.experiments.claims`
holds the paper claims each result is checked against.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
