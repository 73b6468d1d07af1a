"""measureboost: classification of weighted point sets by boosted
region-mass threshold classifiers, with an in-repo persistent homology
engine and estimators for the associated complexity and limit theorems."""

from .measures import Measure, LabeledDataset
from .regions import Ball

__version__ = "0.1.0"
