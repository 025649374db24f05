"""Certified Riesz-product evaluation, measure-class algebra, and
invariant certificates for factors given by spectral measures."""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, NotPointwiseEvaluable, ParameterError,
                     PrecisionSettingError, RangeError, SnapError,
                     SpecFormatError, StepMismatch, SymmetryViolation,
                     Tau3Error, TailNotCertified, UndeterminedError,
                     UnsupportedArgument)
from .intervals import IntervalValue, cos2pi, precision_bits
from .measures import (CoefficientSequence, MeasureExpr, bernoulli_partial,
                       load_measure_spec, normalize, parse_measure_spec,
                       scale_measure)
from .fourier import (ArgumentSpec, ExactRational, ScaledPower, arg_reduce,
                      ft_point, tail_bound)
from .topology import (CompletionClass, CompletionKind, Conclusion,
                       ConvergenceVerdict, SequenceSpec, classify_completion,
                       f_gap_scan, test_sequence)
from .class_algebra import (Axiom, AxiomTable, ClassExpr, LEBESGUE_CLASS,
                            Relation, RelationKind, SingularTag, Support,
                            class_of, convolve, relation, series_class)
from .invariants import (Certificate, FactorSpec, SBounds, TauDescriptor,
                         Verdict, distinguish, replay_certificate, s_bounds,
                         tau_descriptor)
from .oracle import GridMeasure, discretize, grid_convolve, grid_ft

__all__ = [name for name in dir() if not name.startswith("_")]
