"""Workloads: the NPB LU/BT/SP pseudo-applications the paper runs."""

from .npb import NPBApplication, grid_shape

__all__ = ["NPBApplication", "grid_shape"]
