"""Datasets: the synthetic census stand-in of the K-Means experiments."""

from repro.data.census import CENSUS_DEFAULT_ROWS, CENSUS_DIMENSIONS, census_sample

__all__ = [
    "census_sample",
    "CENSUS_DIMENSIONS",
    "CENSUS_DEFAULT_ROWS",
]
