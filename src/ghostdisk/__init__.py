"""Rotating-disk single-pixel imaging: patterns, disk layout, simulation.

The package simulates a color ghost-imaging scheme in which all structured
illumination patterns are punched as hole groups on one spinning disk.  A
two-level partition (row parts, then cells) keeps the pattern set short, so
a single revolution measures the whole object and every arithmetic step
stays in exact integers.
"""

from __future__ import annotations

from .disk import (
    DiskLayout,
    PartitionSpec,
    ScanSchedule,
    SlotDescriptor,
    build_schedule,
    disk_layout,
    make_spec,
    place_pattern,
)
from .hadamard import (
    GramCoefficients,
    ReducedPatternSet,
    gram,
    gram_coefficients,
    random_pattern_set,
    reduce_matrix,
    sylvester_hadamard,
)
from .metrics import (
    affine_invert,
    build_measurement_matrix,
    measured_contrast,
    oracle_reconstruct,
    predicted_contrast_cell,
    predicted_contrast_part,
    predicted_contrast_reduced,
)
from .scene import SceneObject, Trajectory, builtin_letter, sample_scene
from .sim import SimulationResult, TimingConfig, simulate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DiskLayout",
    "GramCoefficients",
    "PartitionSpec",
    "ReducedPatternSet",
    "ScanSchedule",
    "SceneObject",
    "SimulationResult",
    "SlotDescriptor",
    "TimingConfig",
    "Trajectory",
    "affine_invert",
    "build_measurement_matrix",
    "build_schedule",
    "builtin_letter",
    "disk_layout",
    "gram",
    "gram_coefficients",
    "make_spec",
    "measured_contrast",
    "oracle_reconstruct",
    "place_pattern",
    "predicted_contrast_cell",
    "predicted_contrast_part",
    "predicted_contrast_reduced",
    "random_pattern_set",
    "reduce_matrix",
    "sample_scene",
    "simulate",
    "sylvester_hadamard",
]
