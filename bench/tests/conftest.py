"""Make ``import repro`` load this tree's ``src/`` for the in-process tests."""

from bench import use_repro_sources

use_repro_sources()
